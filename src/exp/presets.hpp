// Platform presets encoding the paper's Table III bandwidth benchmarks and
// the Concordia cluster node characteristics used by every experiment.
#pragma once

#include <string>

#include "pagecache/kernel_params.hpp"
#include "platform/platform.hpp"
#include "proto/analytic.hpp"
#include "refmodel/page_model.hpp"
#include "util/units.hpp"

namespace pcs::exp {

/// Which bandwidth column of Table III parameterises the platform.
enum class BandwidthMode {
  RealAsymmetric,       ///< "Cluster (real)" column — feeds the reference model.
  SimulatorSymmetric,   ///< mean of read/write — what SimGrid 3.25 forced on
                        ///< the paper's simulators.
};

/// Table III, in MBps.
struct ClusterBandwidths {
  double mem_read;
  double mem_write;
  double disk_read;
  double disk_write;
  double remote_read;
  double remote_write;
  double network;
};

[[nodiscard]] ClusterBandwidths real_cluster_bandwidths();      // 6860/2764/510/420/515/375/3000
[[nodiscard]] ClusterBandwidths simulator_bandwidths();         // 4812/4812/465/465/445/445/3000
[[nodiscard]] ClusterBandwidths bandwidths_for(BandwidthMode mode);

/// Cluster node constants (Section III.D): 2x16 cores, 250 GiB RAM (we use
/// the ~250 GB available to cache+applications that Fig 4b shows), 450 GiB
/// SSDs, 25 Gbps network measured at 3000 MBps.
inline constexpr int kNodeCores = 32;
inline constexpr double kNodeMemory = 250.0 * util::GB;
inline constexpr double kDiskCapacity = 450.0 * util::GiB;
/// 1 Gflops: the paper injects measured CPU seconds as flops on a 1 Gflops
/// host.
inline constexpr double kHostSpeed = 1e9;

/// Hosts/links/routes for the experiments: a compute node with a local SSD
/// and a storage node exporting a remote SSD over one network link.
struct ClusterPlatform {
  plat::Host* compute = nullptr;
  plat::Disk* local_disk = nullptr;
  plat::Host* storage = nullptr;
  plat::Disk* remote_disk = nullptr;
};

ClusterPlatform make_cluster(plat::Platform& platform, BandwidthMode mode);

/// Prototype configuration (Table III "Python prototype" column: symmetric
/// means, local disk only).
[[nodiscard]] proto::ProtoConfig prototype_config(const cache::CacheParams& params = {});

/// Reference-model parameters (the "real system"): kernel defaults plus the
/// mechanisms listed in refmodel/page_model.hpp.
[[nodiscard]] ref::RefParams reference_params();

}  // namespace pcs::exp
