// LINT-PATH: src/cpg/fixture_layering.cpp
//
// include-layering: the CPG layer includes its own headers and the
// layers below it (util, vclock, sync); an include of a layer above
// it closes a dependency cycle. System headers, same-directory
// includes, and include text inside comments or strings are not
// findings.
#include "cpg/graph.h"

#include <algorithm>
#  include <vector>

#include "analysis/graph_view.h"  // EXPECT: include-layering
#  include "query/engine.h"  // EXPECT: include-layering
#include "sync/sync_event.h"
#include "util/page_set.h"
#include "vclock/vector_clock.h"
#include "local_helper.h"

// #include "shard/store.h" in a comment is prose, not an include.

namespace fixture {

const char* kText = "#include \"net/router.h\"";

}  // namespace fixture
