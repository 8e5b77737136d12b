// Cross-version store compatibility.
//
// Shard files are versioned per file, and an append keeps prior files
// byte-identical, so one store can mix generations. This test pins
// the two sides of that contract: (1) a store rewritten through the
// v2 writer shims (serialize_shard's and serialize_manifest's version
// parameters -- no checksums anywhere) loads in this build and serves
// the exact reply stream of the v3 store it came from; (2) files
// stamped with a future version fail with a typed kInvalidArgument
// naming the version range this build reads -- and a store serving
// such a file quarantines it as kUnavailable -- never a misparse; (3)
// the exact bytes every writer emits for a fixed history are pinned by
// their FNV-1a, so a refactor of an encoder (or of the types it
// encodes from) cannot change a stored byte without failing here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpg/graph.h"
#include "cpg/serialize.h"
#include "history_fixtures.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/format.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "snapshot/compress.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
using namespace inspector::query;
namespace fixtures = inspector::fixtures;

/// A query batch with paginated cursors, serialized to wire bytes --
/// the same shape shard_property_test.cpp compares across shard and
/// worker counts.
std::string serialized_session(QueryEngine& engine, cpg::NodeId last,
                               std::uint64_t first_page) {
  const auto paged = [](Query q, std::uint64_t page_size) {
    QueryOptions options;
    options.page_size = page_size;
    return QueryEngine::BatchItem{std::move(q), options};
  };
  const std::vector<QueryEngine::BatchItem> items = {
      paged(BackwardSliceQuery{last}, 7),
      paged(ForwardSliceQuery{0}, 5),
      paged(RacesQuery{}, 13),
      paged(TaintQuery{{0, 3, 7}, true}, 9),
      paged(CriticalPathQuery{}, 6),
      {StatsQuery{}, {}},
      {HappensBeforeQuery{0, last}, {}},
      paged(PageAccessorsQuery{first_page}, 4),
      paged(LatestWritersQuery{last}, 3),
  };
  const auto replies = engine.run_batch(QueryEngine::kDefaultSession, items);

  std::string out;
  std::uint64_t id = 1;
  std::vector<std::uint64_t> cursors;
  for (const auto& reply : replies) {
    out += wire::serialize_reply(id++, reply);
    out += '\n';
    if (reply.ok() && reply->cursor != 0) cursors.push_back(reply->cursor);
  }
  for (const std::uint64_t cursor : cursors) {
    while (true) {
      const auto page = engine.next(cursor);
      out += wire::serialize_reply(id++, page);
      out += '\n';
      if (!page.ok() || !page->has_more) break;
    }
  }
  return out;
}

/// Rewrite every shard file of the store at `dir` through the v2
/// writer shim and recommit the manifest -- through the v2 manifest
/// shim as well, so the result is exactly the store a v2-era build
/// would have written: no per-shard file checksums, no manifest
/// self-checksum. Loading it exercises kManifestMinReadVersion and the
/// checksum-unknown (file_checksum == 0) skip path end to end.
void downgrade_store_to_v2(const std::string& dir) {
  auto manifest_read = shard::ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest_read.ok()) << manifest_read.status().message();
  shard::Manifest manifest = std::move(manifest_read).value();
  for (shard::ShardInfo& info : manifest.shards) {
    auto data = shard::ShardReader::read_shard(dir, info);
    ASSERT_TRUE(data.ok()) << data.status().message();
    std::uint64_t decoded = 0;
    const std::vector<std::uint8_t> bytes =
        shard::serialize_shard(*data, info.codec, &decoded, /*version=*/2);
    ASSERT_TRUE(
        shard::write_file_bytes(dir + "/" + info.file, bytes).ok());
    info.byte_size = bytes.size();
    info.decoded_bytes = decoded;
  }
  ASSERT_TRUE(
      shard::replace_file_bytes(
          dir + "/" + shard::kManifestFileName,
          shard::serialize_manifest(manifest, /*version=*/2))
          .ok());
}

class ShardCompat : public ::testing::TestWithParam<shard::ShardCodec> {};

TEST_P(ShardCompat, V2StoreServesTheSameReplyBytesAsV3) {
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(77);
  const auto last = static_cast<cpg::NodeId>(source.nodes().size() - 1);
  const std::uint64_t first_page =
      source.page_count() > 0 ? source.pages()[0] : 0;

  std::string reference;
  {
    QueryEngine engine(std::make_shared<const cpg::Graph>(source));
    reference = serialized_session(engine, last, first_page);
  }

  const std::string dir = ::testing::TempDir() + "shard_compat_v2_" +
                          std::to_string(static_cast<int>(GetParam()));
  const auto manifest =
      shard::write_store(source, dir, shard::PlanOptions{3}, GetParam());
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();

  // The freshly written v3 store matches the unsharded engine...
  {
    auto store = shard::ShardStore::open(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    shard::ShardedQueryEngine engine(std::move(store).value());
    EXPECT_EQ(serialized_session(engine, last, first_page), reference);
  }

  // ...and so does the same store downgraded to v2 files.
  downgrade_store_to_v2(dir);
  auto store = shard::ShardStore::open(dir);
  ASSERT_TRUE(store.ok()) << store.status().message();
  shard::ShardedQueryEngine engine(std::move(store).value());
  EXPECT_EQ(serialized_session(engine, last, first_page), reference);
}

INSTANTIATE_TEST_SUITE_P(Codecs, ShardCompat,
                         ::testing::Values(shard::ShardCodec::kRaw,
                                           shard::ShardCodec::kLz));

TEST(ShardCompatErrors, V2FilesAreSmallerWhenRewrittenAsV3) {
  // Not a benchmark -- just the directional claim the format doc
  // makes: the varint packing shrinks the encoded file even before
  // the LZ codec sees the lower-entropy stream.
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(78);
  const std::string dir = ::testing::TempDir() + "shard_compat_size";
  ASSERT_TRUE(shard::write_store(source, dir, shard::PlanOptions{2}).ok());
  auto manifest = shard::ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  std::uint64_t v3_total = 0;
  std::uint64_t v2_total = 0;
  for (const shard::ShardInfo& info : manifest->shards) {
    auto data = shard::ShardReader::read_shard(dir, info);
    ASSERT_TRUE(data.ok());
    v3_total += serialize_shard(*data, info.codec, nullptr, 3).size();
    v2_total += serialize_shard(*data, info.codec, nullptr, 2).size();
  }
  EXPECT_LT(v3_total, v2_total);
}

TEST(ShardCompatErrors, FutureShardVersionIsATypedError) {
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(79);
  const std::string dir = ::testing::TempDir() + "shard_compat_future";
  ASSERT_TRUE(shard::write_store(source, dir, shard::PlanOptions{2}).ok());
  auto manifest = shard::ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  const shard::ShardInfo& info = manifest->shards.front();

  auto bytes = shard::read_file_bytes(dir + "/" + info.file);
  ASSERT_TRUE(bytes.ok());
  // The header is magic u32 + version u32, little-endian.
  bytes.value()[4] =
      static_cast<std::uint8_t>(shard::kShardFormatVersion + 1);
  const auto decoded = shard::deserialize_shard(*bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().message();

  // A store whose file on disk carries the future version quarantines
  // the shard at lazy load: the terminal failure (here the manifest's
  // whole-file checksum, which the edit also broke) comes back as
  // kUnavailable naming the shard and its file.
  ASSERT_TRUE(shard::write_file_bytes(dir + "/" + info.file, *bytes).ok());
  auto store = shard::ShardStore::open(dir);
  ASSERT_TRUE(store.ok()) << store.status().message();
  const auto loaded = store.value()->load(0);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(loaded.status().message().find("quarantined"), std::string::npos)
      << loaded.status().message();
  // The quarantine is sticky: the same typed error, no new disk reads.
  const auto again = store.value()->load(0);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), loaded.status().message());
  EXPECT_EQ(store.value()->stats().quarantined_shards, 1u);
}

TEST(ShardCompatErrors, FutureManifestVersionIsATypedError) {
  fixtures::ThreadCountGuard guard;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(80);
  const std::string dir = ::testing::TempDir() + "shard_compat_manifest";
  ASSERT_TRUE(shard::write_store(source, dir, shard::PlanOptions{2}).ok());
  const std::string path = dir + "/" + shard::kManifestFileName;
  auto bytes = shard::read_file_bytes(path);
  ASSERT_TRUE(bytes.ok());
  bytes.value()[4] =
      static_cast<std::uint8_t>(shard::kManifestFormatVersion + 1);
  ASSERT_TRUE(shard::replace_file_bytes(path, *bytes).ok());
  const auto store = shard::ShardStore::open(dir);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

/// FNV-1a of every byte stream the writers produce for fixed fixture
/// histories: whole-graph files (v3 and the v2 export), raw and LZ
/// stores (every shard file and MANIFEST.bin), the v2 shard export of
/// each shard, and an appended store's rewritten shards. Any change
/// to one of these bytes is a format change and needs a version bump;
/// a refactor must leave all of them alone.
std::vector<std::pair<std::string, std::uint64_t>> writer_fingerprints() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const auto fingerprint = [&](std::string name,
                               const std::vector<std::uint8_t>& bytes) {
    out.emplace_back(std::move(name), snapshot::fnv1a(bytes));
  };
  const auto store = [&](const std::string& tag, const std::string& dir) {
    auto manifest = shard::ShardReader::read_manifest(dir);
    EXPECT_TRUE(manifest.ok()) << manifest.status().message();
    if (!manifest.ok()) return;
    const auto manifest_bytes =
        shard::read_file_bytes(dir + "/" + shard::kManifestFileName);
    EXPECT_TRUE(manifest_bytes.ok());
    if (manifest_bytes.ok()) fingerprint(tag + "/MANIFEST.bin", *manifest_bytes);
    for (const shard::ShardInfo& info : manifest->shards) {
      const auto bytes = shard::read_file_bytes(dir + "/" + info.file);
      EXPECT_TRUE(bytes.ok());
      if (bytes.ok()) fingerprint(tag + "/" + info.file, *bytes);
      const auto data = shard::ShardReader::read_shard(dir, info);
      EXPECT_TRUE(data.ok()) << data.status().message();
      if (data.ok()) {
        fingerprint(tag + "/" + info.file + "@v2",
                    shard::serialize_shard(*data, info.codec, nullptr, 2));
      }
    }
  };
  const auto fresh_dir = [](const std::string& name) {
    // A leftover store would make write_store adopt the next
    // generation, which renames the files and changes the manifest.
    const std::string dir = ::testing::TempDir() + "shard_compat_pin_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  };

  const cpg::Graph source = fixtures::random_history(81);
  fingerprint("graph@v3", cpg::serialize(source));
  fingerprint("graph@v2", cpg::serialize(source, 2));
  for (const shard::ShardCodec codec :
       {shard::ShardCodec::kRaw, shard::ShardCodec::kLz}) {
    const std::string tag =
        codec == shard::ShardCodec::kRaw ? "raw" : "lz";
    const std::string dir = fresh_dir(tag);
    EXPECT_TRUE(
        shard::write_store(source, dir, shard::PlanOptions{3}, codec).ok());
    store(tag, dir);
  }

  const cpg::Graph full = fixtures::barrier_history(6, 10);
  const auto prefix = shard::rank_prefix(
      full, static_cast<std::uint32_t>(full.nodes().size() * 6 / 10));
  EXPECT_TRUE(prefix.ok()) << prefix.status().message();
  if (prefix.ok()) {
    const std::string dir = fresh_dir("appended");
    EXPECT_TRUE(shard::write_store(*prefix, dir, shard::PlanOptions{4},
                                   shard::ShardCodec::kLz)
                    .ok());
    EXPECT_TRUE(shard::append(dir, full).ok());
    store("appended", dir);
  }
  return out;
}

TEST(ShardCompatErrors, WriterBytesArePinned) {
  fixtures::ThreadCountGuard guard;
  // Recorded when the writers were last changed on purpose; see the
  // comment on writer_fingerprints().
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"graph@v3", 0xBB65B20E26942851ULL},
      {"graph@v2", 0xA48F06633F647F49ULL},
      {"raw/MANIFEST.bin", 0x4ADF162EA7DDD443ULL},
      {"raw/shard-000.bin", 0xCFCAC27E17DB783EULL},
      {"raw/shard-000.bin@v2", 0xD010CB54E0AE5980ULL},
      {"raw/shard-001.bin", 0x9C040EB292C2ACE9ULL},
      {"raw/shard-001.bin@v2", 0x56BAF5EE8519E337ULL},
      {"raw/shard-002.bin", 0x3832310A96B47BD3ULL},
      {"raw/shard-002.bin@v2", 0x3BAE74383F998B3BULL},
      {"lz/MANIFEST.bin", 0x62B26381200C8D41ULL},
      {"lz/shard-000.bin", 0x182FEBC01F990019ULL},
      {"lz/shard-000.bin@v2", 0xDDFA83F2341E8378ULL},
      {"lz/shard-001.bin", 0x92FE1A79CBB96D7EULL},
      {"lz/shard-001.bin@v2", 0xD443AB4BEDF960C9ULL},
      {"lz/shard-002.bin", 0x7375358CFB790BBCULL},
      {"lz/shard-002.bin@v2", 0x9BA00F6D315F708DULL},
      {"appended/MANIFEST.bin", 0x11FD27BDBC86FC27ULL},
      {"appended/shard-000.bin", 0x7E226A81C1EA81C1ULL},
      {"appended/shard-000.bin@v2", 0x627823F2C5D33236ULL},
      {"appended/shard-001.bin", 0xD40775C9CEA99084ULL},
      {"appended/shard-001.bin@v2", 0xD4BACFFC0043B27CULL},
      {"appended/shard-002.bin", 0xB97A64B993792E0CULL},
      {"appended/shard-002.bin@v2", 0xE146A029B5E3F719ULL},
      {"appended/shard-003.g1.bin", 0x4692ED8390DD1881ULL},
      {"appended/shard-003.g1.bin@v2", 0x25F17257EC39A7B9ULL},
      {"appended/shard-004.g1.bin", 0x656EFDFBA710429FULL},
      {"appended/shard-004.g1.bin@v2", 0x4AC40E4532512649ULL},
      {"appended/shard-005.g1.bin", 0x75FAAD6BAABB80E5ULL},
      {"appended/shard-005.g1.bin@v2", 0x26DFDB3AC32A942FULL},
  };
  for (const unsigned threads : {1u, 4u}) {
    util::set_analysis_threads(threads);
    const auto actual = writer_fingerprints();
    std::string listing;
    for (const auto& [name, hash] : actual) {
      char line[96];
      std::snprintf(line, sizeof line, "      {\"%s\", 0x%016llXULL},\n",
                    name.c_str(), static_cast<unsigned long long>(hash));
      listing += line;
    }
    EXPECT_EQ(actual, pinned) << "at " << threads
                              << " analysis threads; actual:\n"
                              << listing;
  }
}

}  // namespace
