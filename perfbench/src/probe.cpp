// Page-cache probe: the LruList and the writeback I/O path timed in
// isolation, at the cache size a workload ends with, so a change to either
// shows up without the rest of the simulator around it.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pagecache/io_controller.hpp"
#include "pagecache/lru_list.hpp"
#include "pagecache/memory_manager.hpp"
#include "simcore/engine.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kRepeats = 5;
constexpr std::size_t kLruOps = 200000;

/// A device with separate read and write channels.
class ProbeStore final : public pcs::cache::BackingStore {
 public:
  explicit ProbeStore(pcs::sim::Engine& engine)
      : engine_(engine),
        read_(engine.new_resource("probe:rd", 5.0e8)),
        write_(engine.new_resource("probe:wr", 4.0e8)) {}

  pcs::sim::Task<> read(const std::string& /*file*/, double bytes) override {
    co_await engine_.submit("probe-read", pcs::sim::one(read_), bytes);
  }
  pcs::sim::Task<> write(const std::string& /*file*/, double bytes) override {
    co_await engine_.submit("probe-write", pcs::sim::one(write_), bytes);
  }

 private:
  pcs::sim::Engine& engine_;
  pcs::sim::Resource* read_;
  pcs::sim::Resource* write_;
};

/// The two LRU lists of a MemoryManager, driven with the LruList calls
/// memory_manager.cpp makes, one chunk-sized block at a time:
///   write  io_controller's write path: when the cache is full, evict(),
///          and if no block was clean, flush() and evict() again; then
///          write_to_cache inserts a dirty block;
///   fill   a read miss: when full, flush(file) and evict(file), and if no
///          block was clean, add_to_cache's direct reclaim evict(); then
///          add_to_cache inserts a clean block;
///   flush  flush(): lru_dirty on inactive, then active, and
///          set_dirty(false);
///   hit    find on inactive, then active (the lookup flush_expired_blocks
///          makes; touch_cached walks the lists by file instead), extract
///          and insert into active (touch_cached's path for dirty blocks),
///          then balance_lists' demotions: active.begin(), extract, insert
///          into inactive;
/// where evict(exclude) is lru_clean(exclude) on inactive, else a demotion
/// of active.lru_clean(exclude), then erase.  Evictions are not drawn: at
/// a steady block count every insert evicts one block.  Every probe block
/// is one chunk, so flushes and evictions take whole blocks and never split
/// one, and an insert that finds no room is dropped, as add_to_cache caps
/// at free memory.
class TwoListCache {
 public:
  TwoListCache(std::size_t blocks, std::size_t files, std::uint64_t seed)
      : capacity_(blocks), files_(std::max<std::size_t>(files, 1)), rng_(seed) {
    names_.reserve(files_);
    for (std::size_t f = 0; f < files_; ++f) names_.push_back("f" + std::to_string(f));
  }

  void write() {
    const std::string& file = random_file();
    if (full() && !evict("")) {
      flush("");
      evict("");
    }
    insert(file, true);
  }

  void fill() {
    const std::string& file = random_file();
    if (full()) {
      flush(file);
      if (!evict(file)) evict("");
    }
    insert(file, false);
  }

  void flush() { flush(""); }

  void hit() {
    // Reads re-read recent output: a block among the newest `capacity_`.
    const std::uint64_t back = rng_.uniform_int(1, std::max<std::uint64_t>(capacity_, 1));
    if (back > next_id_) return;
    const std::uint64_t id = next_id_ - back;
    pcs::cache::LruList* list = &inactive_;
    auto it = inactive_.find(id);
    if (it == inactive_.end()) {
      list = &active_;
      it = active_.find(id);
      if (it == active_.end()) return;
    }
    pcs::cache::DataBlock b = list->extract(it);
    b.last_access = tick();
    active_.insert(std::move(b));
    const double cached = inactive_.total() + active_.total();
    while (!active_.empty() &&
           active_.total() > cached * kMaxActiveRatio / (1.0 + kMaxActiveRatio)) {
      inactive_.insert(active_.extract(active_.begin()));
    }
  }

  [[nodiscard]] std::size_t blocks() const {
    return inactive_.block_count() + active_.block_count();
  }

 private:
  static constexpr double kMaxActiveRatio = pcs::cache::CacheParams{}.max_active_ratio;

  [[nodiscard]] bool full() const { return blocks() >= capacity_; }
  double tick() { return now_ += 1.0; }
  const std::string& random_file() { return names_[rng_.uniform_int(0, files_ - 1)]; }

  void insert(const std::string& file, bool dirty) {
    if (full()) return;
    pcs::cache::DataBlock b;
    b.id = next_id_++;
    b.file = file;
    b.size = 1.0;
    b.entry_time = tick();
    b.last_access = now_;
    b.dirty = dirty;
    inactive_.insert(std::move(b));
  }

  void flush(const std::string& exclude) {
    pcs::cache::LruList* list = &inactive_;
    auto it = inactive_.lru_dirty(exclude);
    if (it == inactive_.end()) {
      list = &active_;
      it = active_.lru_dirty(exclude);
      if (it == active_.end()) return;
    }
    list->set_dirty(it, false);
  }

  bool evict(const std::string& exclude) {
    auto it = inactive_.lru_clean(exclude);
    if (it == inactive_.end()) {
      auto active_it = active_.lru_clean(exclude);
      if (active_it == active_.end()) return false;
      it = inactive_.insert(active_.extract(active_it));
    }
    inactive_.erase(it);
    return true;
  }

  std::size_t capacity_;
  std::size_t files_;
  pcs::util::Rng rng_;
  std::vector<std::string> names_;
  pcs::cache::LruList inactive_;
  pcs::cache::LruList active_;
  std::uint64_t next_id_ = 0;
  double now_ = 0.0;
};

/// Mean ns per block operation over a mix weighted by the workload's
/// page-cache traffic: bytes written, missed, flushed and hit, taken as
/// block counts (every probe block is one chunk).
double lru_ns_per_op(const CacheTraffic& traffic, std::size_t blocks, std::uint64_t seed) {
  TwoListCache cache(blocks, traffic.files, seed);
  // Start from a full cache: clean blocks, as after a read-only phase.
  while (cache.blocks() < blocks) cache.fill();
  const double weights[] = {traffic.written, traffic.miss, traffic.flushed, traffic.hit};
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) throw std::runtime_error("page-cache probe: workload moved no bytes");
  // Cumulative thresholds in units of 1/2^20, drawn with one integer.
  constexpr std::uint64_t kScale = 1u << 20;
  std::uint64_t cumulative[4];
  double acc = 0.0;
  for (int k = 0; k < 4; ++k) {
    acc += weights[k];
    cumulative[k] = static_cast<std::uint64_t>(acc / total * kScale);
  }
  pcs::util::Rng rng(seed + 1);
  const Clock::time_point start = Clock::now();
  for (std::size_t op = 0; op < kLruOps; ++op) {
    const std::uint64_t draw = rng.uniform_int(0, kScale - 1);
    if (draw < cumulative[0]) {
      cache.write();
    } else if (draw < cumulative[1]) {
      cache.fill();
    } else if (draw < cumulative[2]) {
      cache.flush();
    } else {
      cache.hit();
    }
  }
  const double elapsed = seconds_since(start);
  if (cache.blocks() > blocks) throw std::logic_error("page-cache probe outgrew its capacity");
  return elapsed * 1e9 / static_cast<double>(kLruOps);
}

/// Writeback I/O through IOController + MemoryManager: write twice the
/// cache's `blocks` chunks over twice the workload's file count (so the
/// dirty-ratio gate flushes and later chunks evict), then read every file
/// back.
double io_ns_per_chunk(std::size_t blocks, std::size_t files) {
  constexpr double kChunk = 1.0e6;
  const int file_count = static_cast<int>(2 * std::max<std::size_t>(files, 1));
  const double chunks_per_file =
      std::max(1.0, 2.0 * static_cast<double>(blocks) / file_count);
  pcs::sim::Engine engine;
  ProbeStore store(engine);
  pcs::cache::CacheParams params;
  pcs::cache::MemoryManager mm(engine, params, static_cast<double>(blocks) * kChunk,
                               engine.new_resource("probe:mem:rd", 1.0e10),
                               engine.new_resource("probe:mem:wr", 1.0e10), store);
  pcs::cache::IOController io(engine, pcs::cache::CacheMode::Writeback, &mm, store);
  const double file_size = chunks_per_file * kChunk;
  auto body = [&]() -> pcs::sim::Task<> {
    for (int f = 0; f < file_count; ++f) {
      co_await io.write_file("w" + std::to_string(f), file_size, kChunk);
    }
    for (int f = 0; f < file_count; ++f) {
      co_await io.read_file("w" + std::to_string(f), file_size, kChunk);
      mm.release_anonymous(file_size);
    }
  };
  const Clock::time_point start = Clock::now();
  engine.spawn("probe", body());
  engine.run();
  const double elapsed = seconds_since(start);
  return elapsed * 1e9 / (2.0 * file_count * chunks_per_file);
}

}  // namespace

ProbeResult run_pagecache_probe(const CacheTraffic& traffic, std::size_t blocks,
                                std::uint64_t seed) {
  ProbeResult result;
  if (blocks == 0) return result;
  std::vector<double> lru;
  std::vector<double> io;
  for (int r = 0; r < kRepeats; ++r) {
    lru.push_back(lru_ns_per_op(traffic, blocks, seed));
    io.push_back(io_ns_per_chunk(blocks, traffic.files));
  }
  std::sort(lru.begin(), lru.end());
  std::sort(io.begin(), io.end());
  result.lru_ns_per_op = lru[kRepeats / 2];
  result.io_ns_per_chunk = io[kRepeats / 2];
  return result;
}

}  // namespace perfbench
