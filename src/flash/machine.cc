#include "src/flash/machine.h"

#include "src/base/log.h"

namespace flash {

Machine::Machine(const MachineConfig& config, uint64_t seed)
    : config_(config),
      interconnect_(config),
      mem_(config),
      sips_(&events_, config, &interconnect_),
      cache_(config.latency),
      rng_(seed),
      node_dead_(config.num_nodes, false) {
  cpus_.resize(static_cast<size_t>(config.num_cpus()));
  for (int i = 0; i < config.num_cpus(); ++i) {
    cpus_[static_cast<size_t>(i)].id = i;
    cpus_[static_cast<size_t>(i)].node = NodeOfCpu(i);
  }
  disks_.reserve(static_cast<size_t>(config.num_nodes));
  for (int node = 0; node < config.num_nodes; ++node) {
    disks_.push_back(std::make_unique<Disk>(seed * 1000003 + static_cast<uint64_t>(node)));
  }
}

void Machine::FailNode(int node) {
  LOG(kInfo) << "hardware fault: node " << node << " failed at t=" << Now() << "ns";
  node_dead_[static_cast<size_t>(node)] = true;
  mem_.FailNode(node);
  sips_.SetNodeDead(node, true);
  for (int c = FirstCpuOfNode(node); c < FirstCpuOfNode(node) + config_.cpus_per_node; ++c) {
    cpus_[static_cast<size_t>(c)].halted = true;
  }
}

void Machine::HaltCpu(int cpu_id) {
  LOG(kInfo) << "hardware fault: cpu " << cpu_id << " halted at t=" << Now() << "ns";
  cpus_[static_cast<size_t>(cpu_id)].halted = true;
}

void Machine::CutOffNode(int node) {
  mem_.CutOffNode(node);
  sips_.SetNodeDead(node, true);
}

void Machine::RestoreNode(int node) {
  node_dead_[static_cast<size_t>(node)] = false;
  mem_.RestoreNode(node);
  sips_.SetNodeDead(node, false);
  for (int c = FirstCpuOfNode(node); c < FirstCpuOfNode(node) + config_.cpus_per_node; ++c) {
    cpus_[static_cast<size_t>(c)].halted = false;
    cpus_[static_cast<size_t>(c)].free_at = Now();
  }
}

}  // namespace flash
