// The seeded history generator: deterministic per seed, the requested
// size, and a shape on which races and taint have non-empty answers.
#include <gtest/gtest.h>

#include <memory>

#include "cpg/recorder.h"
#include "history.h"
#include "query/engine.h"
#include "query/wire.h"
#include "requests.h"

namespace perfbench {
namespace {

using namespace inspector;

std::shared_ptr<const cpg::Graph> record(const History& h) {
  cpg::Recorder recorder;
  replay(h, recorder);
  return std::make_shared<const cpg::Graph>(std::move(recorder).finalize());
}

TEST(History, SameSeedSameStream) {
  const History a = generate_history(2000, 7);
  const History b = generate_history(2000, 7);
  const History c = generate_history(2000, 8);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_NE(a.pages, c.pages);
}

TEST(History, RecordsTheRequestedShape) {
  const History h = generate_history(3000, 1);
  const auto graph = record(h);
  EXPECT_EQ(graph->nodes().size(), h.node_count);
  EXPECT_LE(h.node_count, 3000u);
  EXPECT_GT(h.node_count, 2900u);
  EXPECT_EQ(graph->thread_count(), 8u);
  std::string reason;
  EXPECT_TRUE(graph->validate(&reason)) << reason;
}

TEST(History, RacesAndTaintAreNonEmpty) {
  const History h = generate_history(3000, 3);
  query::QueryEngine engine(record(h));
  auto races = engine.run(query::RacesQuery{.limit = 5});
  ASSERT_TRUE(races.ok());
  EXPECT_GT(races->total_items, 0u);
  auto taint = engine.run(query::TaintQuery{.seed_pages = {engine.graph().pages()[0]}});
  ASSERT_TRUE(taint.ok());
  EXPECT_GT(taint->total_items, 1u);
}

TEST(Requests, DeterministicAndWellFormed) {
  const History h = generate_history(2000, 5);
  const auto graph = record(h);
  RequestGenerator a(graph->nodes().size(), graph->pages(),
                     {.zipf_anchors = false, .scan_one_in = 4}, 9);
  RequestGenerator b(graph->nodes().size(), graph->pages(),
                     {.zipf_anchors = false, .scan_one_in = 4}, 9);
  query::QueryEngine engine(graph);
  int scans = 0;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    const Request r = a.next(id);
    EXPECT_EQ(r.line, b.next(id).line);
    scans += r.scan ? 1 : 0;
    std::uint64_t echo = 0;
    auto parsed = query::wire::parse_request(r.line, &echo);
    ASSERT_TRUE(parsed.ok()) << r.line;
    EXPECT_EQ(echo, id);
    EXPECT_TRUE(engine.run(std::get<query::Query>(parsed->op)).ok()) << r.line;
  }
  EXPECT_GT(scans, 20);
  EXPECT_LT(scans, 80);
}

}  // namespace
}  // namespace perfbench
