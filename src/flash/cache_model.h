// Latency accounting for the memory hierarchy. We do not simulate cache
// contents; workloads and kernel paths charge misses of a given class and the
// model returns the latency while keeping the counters the section 4.2
// firewall measurement needs.
//
// Classes:
//  - local miss: secondary miss satisfied by node-local memory.
//  - remote read miss: secondary read miss to another node's memory.
//  - remote write miss: cache-line ownership request to another node. This is
//    where the coherence controller checks the firewall; enabling checking
//    adds firewall_check_ns (measured by the paper as a 6.3%/4.4% increase in
//    average remote write miss latency under pmake/ocean).

#ifndef HIVE_SRC_FLASH_CACHE_MODEL_H_
#define HIVE_SRC_FLASH_CACHE_MODEL_H_

#include <cstdint>

#include "src/flash/config.h"

namespace flash {

class CacheModel {
 public:
  explicit CacheModel(const LatencyParams& latency) : latency_(latency) {}

  Time LocalMiss() {
    ++local_misses_;
    return latency_.memory_miss_ns;
  }

  Time RemoteReadMiss() { return latency_.memory_miss_ns; }

  // `base_miss_ns` lets callers model contended misses (e.g. ocean's 3-hop
  // dirty misses are slower than the 700 ns average); pass 0 for the default.
  Time RemoteWriteMiss(bool firewall_checking, Time base_miss_ns = 0) {
    ++remote_write_misses_;
    Time lat = base_miss_ns > 0 ? base_miss_ns : latency_.memory_miss_ns;
    if (firewall_checking) {
      lat += latency_.firewall_check_ns;
    }
    remote_write_total_ += lat;
    return lat;
  }

  // Counters.
  uint64_t local_misses() const { return local_misses_; }
  uint64_t remote_write_misses() const { return remote_write_misses_; }

  // Average remote write miss latency, firewall check included; used by
  // bench/sec42_firewall_overhead.
  double AvgRemoteWriteMissNs() const {
    return remote_write_misses_ == 0
               ? 0.0
               : static_cast<double>(remote_write_total_) /
                     static_cast<double>(remote_write_misses_);
  }

  void ResetCounters() {
    local_misses_ = remote_write_misses_ = 0;
    remote_write_total_ = 0;
  }

  const LatencyParams& latency() const { return latency_; }

 private:
  LatencyParams latency_;
  uint64_t local_misses_ = 0;
  uint64_t remote_write_misses_ = 0;
  int64_t remote_write_total_ = 0;
};

}  // namespace flash

#endif  // HIVE_SRC_FLASH_CACHE_MODEL_H_
