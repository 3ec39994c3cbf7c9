#include "src/flash/machine.h"

#include "src/base/log.h"
#include "src/flash/fault_injector.h"

namespace flash {

Machine::Machine(const MachineConfig& config, uint64_t seed)
    : config_(config),
      mem_(config),
      cache_(config.latency),
      rng_(seed) {
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

Machine::~Machine() = default;

void Machine::EnableMessageFaults(uint64_t seed) {
  message_faults_ = std::make_unique<MessageFaultModel>(seed);
}

void Machine::FailNode(int node) {
  LOG(kInfo) << "hardware fault: node " << node << " failed at t=" << Now() << "ns";
  mem_.FailNode(node);
  for (int c = FirstCpuOfNode(node); c < FirstCpuOfNode(node) + config_.cpus_per_node; ++c) {
    cpus_[static_cast<size_t>(c)].halted = true;
  }
}

void Machine::HaltCpu(int cpu_id) {
  LOG(kInfo) << "hardware fault: cpu " << cpu_id << " halted at t=" << Now() << "ns";
  cpus_[static_cast<size_t>(cpu_id)].halted = true;
}

void Machine::CutOffNode(int node) { mem_.CutOffNode(node); }

void Machine::RestoreNode(int node) {
  mem_.RestoreNode(node);
  for (int c = FirstCpuOfNode(node); c < FirstCpuOfNode(node) + config_.cpus_per_node; ++c) {
    cpus_[static_cast<size_t>(c)].halted = false;
    cpus_[static_cast<size_t>(c)].free_at = Now();
  }
}

}  // namespace flash
