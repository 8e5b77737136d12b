#include "shard/store.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace inspector::shard {

namespace {

/// Process-wide shard-store series (all stores share them; the
/// per-store Stats struct stays the per-instance view). Resolved once.
struct StoreMetrics {
  obs::Counter& hits;
  obs::Counter& loads;
  obs::Counter& evictions;
  obs::Counter& retries;
  obs::Counter& backoff_ms;
  obs::Counter& quarantine_transitions;
  obs::Gauge& quarantined;
  obs::Gauge& resident_bytes;
  obs::Histogram& decode_us;
};

StoreMetrics& store_metrics() {
  static StoreMetrics* m = [] {
    auto& reg = obs::Registry::global();
    return new StoreMetrics{
        reg.counter("shard_store_hits_total"),
        reg.counter("shard_store_loads_total"),
        reg.counter("shard_store_evictions_total"),
        reg.counter("shard_store_retries_total"),
        reg.counter("shard_store_backoff_ms_total"),
        reg.counter("shard_store_quarantine_transitions_total"),
        reg.gauge("shard_store_quarantined_shards"),
        reg.gauge("shard_store_resident_bytes"),
        reg.histogram("shard_store_decode_us"),
    };
  }();
  return *m;
}

/// Backoff for retry `attempt` (1-based): exponential from the policy
/// floor, capped, with deterministic jitter in the upper half so
/// concurrent retries of different shards spread out but a given
/// (seed, shard, attempt) always waits the same time.
std::uint64_t backoff_ms(const RetryPolicy& policy, std::uint32_t shard,
                         std::uint32_t attempt) {
  std::uint64_t base = policy.initial_backoff_ms;
  for (std::uint32_t i = 1; i < attempt && base < policy.max_backoff_ms; ++i) {
    base *= 2;
  }
  base = std::min(base, policy.max_backoff_ms);
  if (base <= 1) return base;
  // splitmix64 of (seed, shard, attempt) -> jitter in [0, base/2].
  std::uint64_t x = policy.jitter_seed ^
                    (static_cast<std::uint64_t>(shard) << 32) ^ attempt;
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return base / 2 + x % (base / 2 + 1);
}

}  // namespace

std::optional<std::uint32_t> LoadedShard::local_of(cpg::NodeId global) const {
  const auto& ids = data.global_ids;
  const auto it = std::lower_bound(ids.begin(), ids.end(), global);
  if (it == ids.end() || *it != global) return std::nullopt;
  return static_cast<std::uint32_t>(it - ids.begin());
}

std::span<const std::uint32_t> LoadedShard::out_edges(
    std::uint32_t local) const {
  return {out_ids_.data() + out_offsets_[local],
          out_ids_.data() + out_offsets_[local + 1]};
}

std::span<const std::uint32_t> LoadedShard::in_edges(
    std::uint32_t local) const {
  return {in_ids_.data() + in_offsets_[local],
          in_ids_.data() + in_offsets_[local + 1]};
}

std::span<const std::uint32_t> LoadedShard::frontier_in_of(
    std::uint32_t local) const {
  return {fin_ids_.data() + fin_offsets_[local],
          fin_ids_.data() + fin_offsets_[local + 1]};
}

std::span<const std::uint32_t> LoadedShard::frontier_out_of(
    std::uint32_t local) const {
  return {fout_ids_.data() + fout_offsets_[local],
          fout_ids_.data() + fout_offsets_[local + 1]};
}

std::span<const std::uint32_t> LoadedShard::level_locals(
    std::uint32_t level) const {
  if (level < min_level_ ||
      level - min_level_ + 1 >= level_offsets_.size()) {
    return {};
  }
  const std::uint32_t bucket = level - min_level_;
  return {level_ids_.data() + level_offsets_[bucket],
          level_ids_.data() + level_offsets_[bucket + 1]};
}

namespace {

/// Counting-sort `count` items into `buckets` CSR buckets by
/// `key_of(i)`. Scattering in item order keeps every bucket ascending
/// by item index -- the order each caller's tie-breaks rely on.
template <typename KeyOf>
void bucket_items(std::size_t buckets, std::size_t count, KeyOf&& key_of,
                  std::vector<std::uint32_t>& offsets,
                  std::vector<std::uint32_t>& ids) {
  offsets.assign(buckets + 1, 0);
  for (std::size_t i = 0; i < count; ++i) ++offsets[key_of(i) + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  ids.resize(count);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < count; ++i) {
    ids[cursor[key_of(i)]++] = static_cast<std::uint32_t>(i);
  }
}

std::span<const std::uint32_t> page_bucket(
    const std::vector<std::uint32_t>& offsets,
    const std::vector<std::uint32_t>& ids, std::size_t page_lo,
    std::size_t page_index) {
  if (page_index < page_lo || page_index - page_lo + 1 >= offsets.size()) {
    return {};
  }
  const std::size_t bucket = page_index - page_lo;
  return {ids.data() + offsets[bucket], ids.data() + offsets[bucket + 1]};
}

}  // namespace

std::span<const std::uint32_t> LoadedShard::page_writers(
    std::size_t page_index) const {
  return page_bucket(writer_offsets_, writers_, page_lo_, page_index);
}

std::span<const std::uint32_t> LoadedShard::page_readers(
    std::size_t page_index) const {
  return page_bucket(reader_offsets_, readers_, page_lo_, page_index);
}

Status LoadedShard::build_lookup(const PagePositions& positions) {
  const std::size_t n = data.global_ids.size();
  // Recorded-edge CSR; edges ascend by global index, so each node's
  // list does too.
  bucket_items(
      n, data.edges.size(), [&](std::size_t i) { return data.edges[i].from; },
      out_offsets_, out_ids_);
  bucket_items(
      n, data.edges.size(), [&](std::size_t i) { return data.edges[i].to; },
      in_offsets_, in_ids_);

  // Frontier buckets by local endpoint, ascending global edge index
  // (the critical-path tie-break relies on it).
  std::vector<std::uint32_t> endpoint;
  const auto frontier = [&](const std::vector<FrontierEdge>& edges,
                            const bool by_to,
                            std::vector<std::uint32_t>& offsets,
                            std::vector<std::uint32_t>& ids) {
    endpoint.resize(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      endpoint[i] = *local_of(by_to ? edges[i].to : edges[i].from);
    }
    bucket_items(
        n, edges.size(), [&](std::size_t i) { return endpoint[i]; }, offsets,
        ids);
  };
  frontier(data.frontier_in, /*by_to=*/true, fin_offsets_, fin_ids_);
  frontier(data.frontier_out, /*by_to=*/false, fout_offsets_, fout_ids_);

  // Level buckets over the shard's global-level window, ascending local
  // (hence global) node id within a level.
  min_level_ = 0;
  level_offsets_.assign(1, 0);
  level_ids_.clear();
  page_lo_ = 0;
  writer_offsets_.assign(1, 0);
  reader_offsets_.assign(1, 0);
  writers_.clear();
  readers_.clear();
  if (n == 0) return Status::Ok();
  const auto [lo, hi] = std::minmax_element(data.global_levels.begin(),
                                            data.global_levels.end());
  min_level_ = *lo;
  bucket_items(
      *hi - *lo + 1, n,
      [&](std::size_t local) { return data.global_levels[local] - min_level_; },
      level_offsets_, level_ids_);

  // Page buckets over the universe window the shard's pages span,
  // filled in global rank order. deserialize_shard checked that the
  // ranks are a permutation of the shard's rank fence, so rank order
  // is a direct index, not a sort.
  const auto [first_page, last_page] = page_fence(data.nodes);
  if (first_page == kNoPage) return Status::Ok();
  // The window is [position of the first page, position of the last]
  // (the universe is strictly ascending; deserialize_manifest checks).
  // Every touch is bounds-checked against it, so a file or universe
  // that breaks that order fails the load instead of indexing past the
  // buckets.
  const auto position_of = [&](std::uint64_t page) -> std::size_t {
    const auto it = positions.find(page);
    return it == positions.end() ? kNoPosition : it->second;
  };
  page_lo_ = position_of(first_page);
  const std::size_t last = position_of(last_page);
  const std::size_t width =
      page_lo_ <= last && last != kNoPosition ? last - page_lo_ + 1 : 0;
  std::vector<std::uint32_t> by_rank(n);
  for (std::uint32_t local = 0; local < n; ++local) {
    by_rank[data.global_ranks[local] - data.rank_lo] = local;
  }
  // Two passes per bucket set. The first walks the nodes in local
  // order (their payloads lie in that order) and records each touch's
  // bucket; the second scatters in rank order from those records
  // alone, so it never revisits the payloads.
  std::vector<std::uint32_t> touch_begin(n + 1);
  std::vector<std::uint32_t> touch_bucket;
  const auto pages = [&](PageSet cpg::SubComputation::*set,
                         std::vector<std::uint32_t>& offsets,
                         std::vector<std::uint32_t>& ids) -> Status {
    touch_bucket.clear();
    offsets.assign(width + 1, 0);
    for (std::uint32_t local = 0; local < n; ++local) {
      touch_begin[local] = static_cast<std::uint32_t>(touch_bucket.size());
      for (const std::uint64_t page : data.nodes[local].*set) {
        // Unsigned: a position before the window wraps past `width`.
        const std::size_t bucket = position_of(page) - page_lo_;
        if (bucket >= width) {
          return Status(StatusCode::kInvalidArgument,
                        "page " + std::to_string(page) +
                            " lies outside the manifest's page universe");
        }
        touch_bucket.push_back(static_cast<std::uint32_t>(bucket));
        ++offsets[bucket + 1];
      }
    }
    touch_begin[n] = static_cast<std::uint32_t>(touch_bucket.size());
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    ids.resize(touch_bucket.size());
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const std::uint32_t local : by_rank) {
      for (std::uint32_t t = touch_begin[local]; t < touch_begin[local + 1];
           ++t) {
        ids[cursor[touch_bucket[t]]++] = local;
      }
    }
    return Status::Ok();
  };
  if (Status st = pages(&cpg::SubComputation::write_set, writer_offsets_,
                        writers_);
      !st.ok()) {
    return st;
  }
  return pages(&cpg::SubComputation::read_set, reader_offsets_, readers_);
}

ShardStore::ShardStore(std::string dir, Manifest manifest,
                       StoreOptions options)
    : dir_(std::move(dir)), manifest_(std::move(manifest)),
      options_(options) {
  page_positions_.reserve(manifest_.pages.size());
  for (std::uint32_t i = 0; i < manifest_.pages.size(); ++i) {
    page_positions_.emplace(manifest_.pages[i], i);
  }
  for (const ShardInfo& info : manifest_.shards) {
    stats_.total_bytes += info.byte_size;
    stats_.total_decoded_bytes += info.decoded_bytes;
  }
}

void ShardStore::refresh_pinned_locked() const {
  std::uint64_t alive = 0;
  std::erase_if(uncached_pins_, [&](const auto& entry) {
    if (entry.first.expired()) return true;
    alive += entry.second;
    return false;
  });
  stats_.pinned_bytes = alive;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes,
               stats_.resident_bytes + stats_.pinned_bytes);
}

Result<std::shared_ptr<ShardStore>> ShardStore::open(std::string dir,
                                                     StoreOptions options) {
  auto manifest = ShardReader::read_manifest(dir);
  if (!manifest.ok()) return manifest.status();
  // Queries skip shards by their rank fences without opening them, so
  // the fences must partition the rank space exactly: consecutive,
  // gap-free, and as wide as the shard's node count.
  const Manifest& m = manifest.value();
  std::uint64_t next_rank = 0;
  for (std::uint32_t s = 0; s < m.shard_count; ++s) {
    const ShardInfo& info = m.shards[s];
    if (info.rank_lo != next_rank || info.rank_hi < info.rank_lo ||
        info.rank_hi - info.rank_lo != info.node_count) {
      return Status(StatusCode::kInvalidArgument,
                    dir + ": shard " + std::to_string(s) + " rank fence [" +
                        std::to_string(info.rank_lo) + ", " +
                        std::to_string(info.rank_hi) + ") with " +
                        std::to_string(info.node_count) +
                        " nodes does not continue the rank tiling at " +
                        std::to_string(next_rank));
    }
    next_rank = info.rank_hi;
  }
  if (next_rank != m.total_nodes) {
    return Status(StatusCode::kInvalidArgument,
                  dir + ": shard rank fences end at " +
                      std::to_string(next_rank) + " but the store holds " +
                      std::to_string(m.total_nodes) + " nodes");
  }
  return std::shared_ptr<ShardStore>(new ShardStore(
      std::move(dir), std::move(manifest).value(), options));
}

Result<std::shared_ptr<const LoadedShard>> ShardStore::load(
    std::uint32_t shard) {
  if (shard >= manifest_.shard_count) {
    return Status(StatusCode::kOutOfRange,
                  "shard " + std::to_string(shard) + " out of range [0, " +
                      std::to_string(manifest_.shard_count) + ")");
  }
  std::unique_lock lock(mu_);
  for (;;) {
    if (const auto it = resident_.find(shard); it != resident_.end()) {
      ++stats_.hits;
      store_metrics().hits.add();
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->loaded;
    }
    // Quarantined shards fail fast -- no disk IO, no decode, just the
    // stored kUnavailable naming the shard and the original cause.
    if (const auto it = quarantined_.find(shard); it != quarantined_.end()) {
      return it->second;
    }
    if (loading_.contains(shard)) {
      // Another thread is decoding this very shard: wait for it
      // rather than decoding the same file twice, then re-check (a
      // tiny budget may have evicted it again before we woke, or the
      // loader kept it uncached; a failure shows up as a quarantine
      // entry).
      load_done_.wait(lock);
      continue;
    }
    break;
  }
  loading_.insert(shard);
  lock.unlock();
  // However this scope exits -- typed failure, success, or an
  // exception unwinding mid-decode (bad_alloc is live here: stores
  // bigger than memory are the point of this class) -- the in-flight
  // mark must be cleared and waiters woken, or every later load of
  // this shard would block forever.
  struct ClearLoading {
    ShardStore* store;
    std::unique_lock<std::mutex>* lock;
    std::uint32_t shard;
    // Destructor work must be nonthrowing (erase of a present u32 key
    // and a notify); recording a failure status allocates, so that
    // happens in the normal return paths, never here.
    ~ClearLoading() {
      if (!lock->owns_lock()) lock->lock();
      store->loading_.erase(shard);
      store->load_done_.notify_all();
    }
  };
  ClearLoading clear_loading{this, &lock, shard};
  // The whole miss path (read, decode, validate, lookup build) is one
  // shard_load span -- child-only, so pool threads with no sampled
  // ambient context never mint stray trace roots.
  obs::Span span("shard_load", obs::Span::Root::kDeny);
  if (span.active()) span.annotate("shard", static_cast<std::uint64_t>(shard));
  const auto miss_started = std::chrono::steady_clock::now();
  std::uint64_t retries = 0;
  std::uint64_t backoff_slept_ms = 0;
  // Quarantine the shard under the lock (the guard then wakes waiters
  // holding the same lock, and they pick the entry up). Every load of
  // a quarantined shard -- this one included -- returns the same
  // kUnavailable wrap, so error replies are stable across retries.
  const auto fail = [&](const Status& cause) {
    Status wrapped(StatusCode::kUnavailable,
                   "shard " + std::to_string(shard) + " (" + dir_ + "/" +
                       manifest_.shards[shard].file + ") is quarantined: " +
                       std::string(to_string(cause.code())) + ": " +
                       cause.message());
    lock.lock();
    stats_.retries += retries;
    stats_.backoff_ms += backoff_slept_ms;
    StoreMetrics& m = store_metrics();
    m.retries.add(retries);
    m.backoff_ms.add(backoff_slept_ms);
    if (!quarantined_.contains(shard)) m.quarantine_transitions.add();
    quarantined_.insert_or_assign(shard, wrapped);
    stats_.quarantined_shards = quarantined_.size();
    m.quarantined.set(static_cast<std::int64_t>(quarantined_.size()));
    return wrapped;
  };
  // Miss: file read, decompression, checksum, validation, and lookup
  // construction all run off-lock -- everything below touches only
  // immutable state (dir_, manifest_, options_), so concurrent misses
  // on different shards proceed in parallel instead of queuing behind
  // one decode. Transient failures (kUnavailable from the read layer)
  // retry with backoff; everything else is permanent.
  const auto read_with_retry = [&]() -> Result<ShardData> {
    const RetryPolicy& policy = options_.retry_policy;
    const std::uint32_t attempts = std::max<std::uint32_t>(
        policy.max_attempts, 1);
    for (std::uint32_t attempt = 1;; ++attempt) {
      auto data = ShardReader::read_shard(dir_, manifest_.shards[shard]);
      if (data.ok() || attempt >= attempts ||
          data.status().code() != StatusCode::kUnavailable) {
        return data;
      }
      ++retries;
      const std::uint64_t wait_ms = backoff_ms(policy, shard, attempt);
      backoff_slept_ms += wait_ms;
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    }
  };
  auto data = read_with_retry();
  if (!data.ok()) return fail(data.status());
  const Status valid = [&]() -> Status {
    // The file is internally consistent (deserialize_shard checked);
    // now it must also be the file this manifest wrote, not a stray
    // from another store generation sharing the directory.
    if (data->shard_index != shard ||
        data->global_ids.size() != manifest_.shards[shard].node_count) {
      return Status(StatusCode::kInvalidArgument,
                    dir_ + "/" + manifest_.shards[shard].file +
                        " does not match the manifest (expected shard " +
                        std::to_string(shard) + " with " +
                        std::to_string(manifest_.shards[shard].node_count) +
                        " nodes; found shard " +
                        std::to_string(data->shard_index) + " with " +
                        std::to_string(data->global_ids.size()) + ")");
    }
    // Bound every sidecar value the query layer indexes dense arrays
    // with (visited/node_marked by global id, thread_marked by
    // thread): deserialize_shard checked internal consistency, but
    // only the manifest knows the global universe sizes.
    const auto mismatch = [&](const char* what) {
      return Status(StatusCode::kInvalidArgument,
                    dir_ + "/" + manifest_.shards[shard].file + ": " + what +
                        " exceeds the manifest's bounds");
    };
    for (const cpg::NodeId gid : data->global_ids) {
      if (gid >= manifest_.total_nodes) return mismatch("a global node id");
    }
    for (const auto& e : data->frontier_in) {
      if (e.from >= manifest_.total_nodes || e.to >= manifest_.total_nodes) {
        return mismatch("a frontier edge endpoint");
      }
    }
    for (const auto& e : data->frontier_out) {
      if (e.from >= manifest_.total_nodes || e.to >= manifest_.total_nodes) {
        return mismatch("a frontier edge endpoint");
      }
    }
    // Rank-fenced gathers skip a shard whose manifest fence lies
    // outside the caller's window, so a rank outside the fence would
    // silently drop a node from some answers. deserialize_shard proved
    // the ranks a permutation of the file's own fence; that fence must
    // be the manifest's.
    const ShardInfo& info = manifest_.shards[shard];
    if (data->rank_lo != info.rank_lo || data->rank_hi != info.rank_hi) {
      return Status(StatusCode::kInvalidArgument,
                    dir_ + "/" + info.file + ": rank fence [" +
                        std::to_string(data->rank_lo) + ", " +
                        std::to_string(data->rank_hi) +
                        ") differs from the manifest's rank fence [" +
                        std::to_string(info.rank_lo) + ", " +
                        std::to_string(info.rank_hi) + ")");
    }
    for (const std::uint32_t level : data->global_levels) {
      if (manifest_.level_count == 0 || level >= manifest_.level_count) {
        return mismatch("a topological level");
      }
    }
    for (const auto& node : data->nodes) {
      if (node.thread >= manifest_.thread_count) {
        return mismatch("a thread id");
      }
    }
    return Status::Ok();
  }();
  if (!valid.ok()) return fail(valid);
  auto loaded = std::make_shared<LoadedShard>();
  loaded->data = std::move(data).value();
  loaded->decoded_bytes = manifest_.shards[shard].decoded_bytes;
  if (Status st = loaded->build_lookup(page_positions_); !st.ok()) {
    return fail(Status(st.code(), dir_ + "/" + manifest_.shards[shard].file +
                                      ": " + st.message()));
  }
  // Back under the lock only for the cache mutation itself; the guard
  // clears the in-flight mark (and wakes waiters) under this same
  // lock hold once the shard is resident.
  const std::uint64_t miss_wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - miss_started)
          .count());
  lock.lock();
  ++stats_.loads;
  stats_.retries += retries;
  stats_.backoff_ms += backoff_slept_ms;
  StoreMetrics& m = store_metrics();
  m.loads.add();
  m.retries.add(retries);
  m.backoff_ms.add(backoff_slept_ms);
  // Decode time proper: the miss wall clock minus backoff sleeps.
  const std::uint64_t slept_us = backoff_slept_ms * 1000;
  m.decode_us.observe(miss_wall_us > slept_us ? miss_wall_us - slept_us : 0);
  // Evict before inserting, so the cache never exceeds max(budget,
  // one shard) of decoded bytes. Only unpinned shards are victims:
  // evicting a pinned one frees nothing (its pins keep it alive) and
  // guarantees a miss on the next sweep. The cache's own reference is
  // the only one exactly when use_count() is 1, and that cannot rise
  // behind our back -- new pins are handed out only under mu_. If the
  // unpinned shards cannot make room, nothing is evicted and the new
  // shard goes to its caller uncached; the uncached-pin ledger keeps
  // the honest peak honest until the last pin drops.
  const std::uint64_t budget = options_.memory_budget_bytes;
  bool cache = true;
  if (budget > 0 && stats_.resident_bytes + loaded->decoded_bytes > budget) {
    std::uint64_t pinned = 0;
    for (const Entry& e : lru_) {
      if (e.loaded.use_count() > 1) pinned += e.loaded->decoded_bytes;
    }
    cache = pinned == 0 || pinned + loaded->decoded_bytes <= budget;
    for (auto it = lru_.end(); cache && it != lru_.begin() &&
                               stats_.resident_bytes + loaded->decoded_bytes >
                                   budget;) {
      --it;
      if (it->loaded.use_count() > 1) continue;  // pinned: never evicted
      stats_.resident_bytes -= it->loaded->decoded_bytes;
      ++stats_.evictions;
      m.evictions.add();
      resident_.erase(it->shard);
      it = lru_.erase(it);
    }
  }
  if (cache) {
    stats_.resident_bytes += loaded->decoded_bytes;
    stats_.peak_cache_bytes =
        std::max(stats_.peak_cache_bytes, stats_.resident_bytes);
    lru_.push_front(Entry{shard, loaded});
    resident_.emplace(shard, lru_.begin());
  } else {
    uncached_pins_.emplace_back(loaded, loaded->decoded_bytes);
  }
  m.resident_bytes.set(static_cast<std::int64_t>(stats_.resident_bytes));
  refresh_pinned_locked();
  return std::shared_ptr<const LoadedShard>(std::move(loaded));
}

std::vector<std::uint32_t> ShardStore::visit_order() const {
  std::vector<std::uint32_t> order;
  order.reserve(manifest_.shard_count);
  std::vector<char> listed(manifest_.shard_count, 0);
  {
    std::lock_guard lock(mu_);
    for (const Entry& e : lru_) {
      order.push_back(e.shard);
      listed[e.shard] = 1;
    }
  }
  for (std::uint32_t s = 0; s < manifest_.shard_count; ++s) {
    if (listed[s] == 0) order.push_back(s);
  }
  return order;
}

ShardStore::Stats ShardStore::stats() const {
  std::lock_guard lock(mu_);
  refresh_pinned_locked();
  return stats_;
}

}  // namespace inspector::shard
