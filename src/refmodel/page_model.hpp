// Reference kernel page-cache model — the "real system" substitute.
//
// The paper validates against executions on a physical cluster.  This
// module plays that role: an *independent*,
// finer-grained simulation of the Linux page cache that includes exactly
// the kernel mechanisms the paper identifies as the sources of its residual
// model error:
//
//   * page-granular extents (amounts quantised to the page size) instead of
//     I/O-operation-sized blocks;
//   * writeback driven by vm.dirty_background_ratio: the flusher thread
//     starts writing out at 10% dirty, not only at expiry — the paper
//     observes "dirty data seemed to be flushing faster in real life than
//     in simulation";
//   * protection of files currently open for writing: "the Linux kernel
//     tends to not evict pages that belong to files being currently
//     written, which we could not easily reproduce in our model" (the File
//     3 / Read 3 discrepancy of Fig 4b/4c);
//   * it is parameterised with the *measured asymmetric* bandwidths of
//     Table III, while the evaluated simulators get the symmetric means.
//
// The code is deliberately written independently of pcs::cache so the two
// models do not share implementation bugs.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pagecache/memory_manager.hpp"  // for cache::CacheSnapshot
#include "platform/platform.hpp"
#include "simcore/engine.hpp"
#include "storage/file_system.hpp"
#include "storage/storage_service.hpp"
#include "util/units.hpp"

namespace pcs::ref {

struct RefParams {
  double page_size = 1.0 * util::MiB;  ///< extent quantum (page-run granularity)
  double dirty_ratio = 0.20;
  double dirty_background_ratio = 0.10;
  double dirty_expire = 30.0;
  double writeback_period = 5.0;
  double max_active_ratio = 2.0;
  bool protect_open_writes = true;
};

/// A run of contiguous pages of one file with identical state.
struct Extent {
  std::string file;
  double size = 0.0;
  double entry_time = 0.0;
  double last_access = 0.0;
  bool dirty = false;
};

/// Pure state machine for the kernel cache: two extent lists (inactive /
/// active), anonymous memory, write-protection set.  No simulated time —
/// RefStorage charges transfers on the engine.
class PageCacheKernel {
 public:
  PageCacheKernel(const RefParams& params, double total_mem);

  [[nodiscard]] double total_mem() const { return total_mem_; }
  [[nodiscard]] double cached() const;
  [[nodiscard]] double cached(const std::string& file) const;
  [[nodiscard]] double dirty() const;
  [[nodiscard]] double anonymous() const { return anon_; }
  [[nodiscard]] double free_mem() const { return total_mem_ - cached() - anon_; }
  [[nodiscard]] double dirty_limit() const { return params_.dirty_ratio * total_mem_; }
  [[nodiscard]] double dirty_bg_limit() const {
    return params_.dirty_background_ratio * total_mem_;
  }

  /// Quantise an amount up to whole pages.
  [[nodiscard]] double quantize(double bytes) const;

  void open_write(const std::string& file) { open_writes_.insert(file); }
  void close_write(const std::string& file) { open_writes_.erase(file); }
  [[nodiscard]] bool write_protected(const std::string& file) const {
    return params_.protect_open_writes && open_writes_.count(file) != 0;
  }

  /// Evict clean unprotected extents (inactive first, demoting from active
  /// under pressure) until `amount` bytes are reclaimed or candidates run
  /// out; returns the bytes reclaimed.
  double reclaim(double amount);

  /// Select dirty extents for writeback, mark them clean, and return the
  /// (file, bytes) writes the caller must charge to the disk.  With
  /// `only_expired`, limits to extents older than dirty_expire (the
  /// periodic pass); otherwise oldest-first up to `max_bytes`.
  [[nodiscard]] std::vector<std::pair<std::string, double>> take_writeback_batch(
      double max_bytes, double now, bool only_expired);

  void insert_clean(const std::string& file, double bytes, double now);
  void insert_dirty(const std::string& file, double bytes, double now);

  /// Mark `bytes` of `file` accessed: promote to the active list (kernel
  /// mark_page_accessed); returns bytes actually found in cache.
  double touch(const std::string& file, double bytes, double now);

  void alloc_anon(double bytes);
  void release_anon(double bytes);

  /// Drop all extents of `file` (unlink), dirty or not.
  void drop_file(const std::string& file);

  [[nodiscard]] cache::CacheSnapshot snapshot(double now) const;
  void check_invariants() const;

 private:
  using ExtentList = std::deque<Extent>;
  void balance(double now);
  double list_total(const ExtentList& list) const;

  RefParams params_;
  double total_mem_;
  double anon_ = 0.0;
  ExtentList inactive_;  // LRU order: front = oldest access
  ExtentList active_;
  std::set<std::string> open_writes_;
};

/// StorageService over one local disk, backed by the reference kernel model.
class RefStorage : public storage::StorageService {
 public:
  RefStorage(sim::Engine& engine, plat::Host& host, plat::Disk& disk, const RefParams& params,
             double mem_for_cache = -1.0);

  [[nodiscard]] sim::Task<> read_file(const std::string& name, double chunk_size) override;
  [[nodiscard]] sim::Task<> write_file(const std::string& name, double size,
                                       double chunk_size) override;
  [[nodiscard]] double file_size(const std::string& name) const override {
    return fs_.size_of(name);
  }
  void stage_file(const std::string& name, double size) override { fs_.create(name, size); }
  void release_anonymous(double bytes) override { kernel_.release_anon(bytes); }

  /// Spawn the kernel flusher-thread daemon (expiry + background-ratio
  /// writeback).
  void start_flusher();

  [[nodiscard]] PageCacheKernel& kernel() { return kernel_; }
  [[nodiscard]] const PageCacheKernel& kernel() const { return kernel_; }
  [[nodiscard]] storage::FileSystem& fs() { return fs_; }
  [[nodiscard]] cache::CacheSnapshot snapshot() const { return kernel_.snapshot(engine_.now()); }
  [[nodiscard]] std::optional<cache::CacheSnapshot> state_snapshot() const override {
    return snapshot();
  }

 private:
  [[nodiscard]] sim::Task<> flusher_loop();
  [[nodiscard]] sim::Task<> write_batch(std::vector<std::pair<std::string, double>> batch);
  /// Make room for `amount` bytes, flushing synchronously if eviction alone
  /// cannot (direct reclaim).
  [[nodiscard]] sim::Task<> make_room(double amount);

  sim::Engine& engine_;
  plat::Host& host_;
  plat::Disk& disk_;
  RefParams params_;
  storage::FileSystem fs_;
  PageCacheKernel kernel_;
};

}  // namespace pcs::ref
