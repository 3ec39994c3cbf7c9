#include "src/flash/sips.h"

#include <algorithm>

#include "src/base/sim_profile.h"
#include "src/flash/fault_injector.h"

namespace flash {

uint32_t SipsChecksum(const std::array<uint8_t, kSipsPayloadBytes>& payload) {
  uint32_t hash = 2166136261u;
  for (uint8_t byte : payload) {
    hash ^= byte;
    hash *= 16777619u;
  }
  return hash;
}

Sips::Sips(EventQueue* queue, const MachineConfig& config, const Interconnect* interconnect)
    : queue_(queue),
      interconnect_(interconnect),
      cpus_per_node_(config.cpus_per_node),
      queue_depth_(config.sips_queue_depth),
      ipi_ns_(config.latency.ipi_ns),
      payload_ns_(config.latency.sips_payload_ns),
      handlers_(config.num_nodes),
      inflight_requests_(config.num_nodes, 0),
      inflight_replies_(config.num_nodes, 0),
      node_dead_(config.num_nodes, false) {}

Sips::~Sips() = default;

void Sips::SetHandler(int node, SipsHandler handler) {
  handlers_[static_cast<size_t>(node)] = std::move(handler);
}

void Sips::SetNodeDead(int node, bool dead) { node_dead_[static_cast<size_t>(node)] = dead; }

void Sips::EnableFaultModel(uint64_t seed) {
  fault_model_ = std::make_unique<MessageFaultModel>(seed);
}

void Sips::ScheduleDelivery(SipsMessage msg, Time delay, bool release_credit) {
  queue_->ScheduleAfter(delay, [this, msg, release_credit]() mutable {
    base::SimProfileScope profile_scope(base::SimSubsystem::kSips);
    if (release_credit) {
      auto& counter = msg.is_reply
                          ? inflight_replies_[static_cast<size_t>(msg.dst_node)]
                          : inflight_requests_[static_cast<size_t>(msg.dst_node)];
      --counter;
    }
    if (node_dead_[static_cast<size_t>(msg.dst_node)]) {
      ++messages_dropped_;
      return;
    }
    auto& handler = handlers_[static_cast<size_t>(msg.dst_node)];
    if (!handler) {
      ++messages_dropped_;
      return;
    }
    if (SipsChecksum(msg.payload) != msg.checksum) {
      // The line was corrupted in flight; the receiver discards it. The
      // corruption degrades into loss, which the layer above retries.
      ++messages_dropped_;
      ++corrupt_detected_;
      return;
    }
    msg.deliver_time = queue_->Now();
    handler(msg);
  });
}

base::Status Sips::Send(int src_cpu, int dst_node,
                        bool is_reply,
                        const std::array<uint8_t, kSipsPayloadBytes>& payload) {
  if (node_dead_[static_cast<size_t>(NodeOfCpu(src_cpu))]) {
    // A dead node sends nothing; callers on dead nodes should be halted
    // already, this is a backstop.
    ++messages_dropped_;
    return base::OkStatus();
  }
  auto& inflight =
      is_reply ? inflight_replies_[static_cast<size_t>(dst_node)]
               : inflight_requests_[static_cast<size_t>(dst_node)];
  if (inflight >= queue_depth_) {
    return base::ResourceExhausted();
  }
  ++inflight;
  ++messages_sent_;

  SipsMessage msg;
  msg.src_cpu = src_cpu;
  msg.dst_node = dst_node;
  msg.is_reply = is_reply;
  msg.send_time = queue_->Now();
  msg.payload = payload;
  msg.checksum = SipsChecksum(payload);

  const int src_node = NodeOfCpu(src_cpu);
  Time extra_delay = 0;
  bool duplicate = false;
  if (fault_model_ != nullptr) {
    const MessageFaultDecision decision =
        fault_model_->Sample(queue_->Now(), src_node, dst_node);
    switch (decision.kind) {
      case MessageFaultKind::kNone:
        break;
      case MessageFaultKind::kDrop:
        // The mesh ate the line. Release the flow-control credit (hardware
        // reclaims the slot) and tell the sender OK: loss is silent.
        --inflight;
        ++messages_dropped_;
        return base::OkStatus();
      case MessageFaultKind::kDuplicate:
        duplicate = true;
        break;
      case MessageFaultKind::kDelay:
        // A delayed line took a non-minimal route: at least one detour hop.
        extra_delay = std::max<Time>(
            decision.delay_ns,
            interconnect_ == nullptr
                ? 0
                : interconnect_->DetourExtraNs(src_node, dst_node, 1));
        break;
      case MessageFaultKind::kCorrupt:
        // Flip one bit AFTER the checksum was computed, so the receiver can
        // detect the damage.
        msg.payload[decision.corrupt_byte] ^= decision.corrupt_mask;
        break;
    }
  }

  // Delivery: IPI latency (plus any per-hop mesh cost for the route), then
  // the payload costs one more line access when the receiving processor
  // touches it. We fold the payload access into the deliver_time.
  const Time route_extra =
      interconnect_ == nullptr
          ? 0
          : interconnect_->RouteExtraNs(src_node, dst_node);
  const Time base_delay = ipi_ns_ + payload_ns_ + route_extra;
  ScheduleDelivery(msg, base_delay + extra_delay, /*release_credit=*/true);
  if (duplicate) {
    // The duplicate rides one payload time behind the original and does not
    // consume an extra flow-control credit (the controller already charged
    // the original).
    ++messages_sent_;
    ScheduleDelivery(msg, base_delay + payload_ns_, /*release_credit=*/false);
  }
  return base::OkStatus();
}

}  // namespace flash
