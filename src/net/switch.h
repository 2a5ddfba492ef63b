// Output-queued switch with shortest-path ECMP routing and optional PFC.
//
// Routing tables map each destination host to a next-hop group: a list of
// candidate egress ports, computed by the topology builder (BFS over the
// device graph). Equal lists are interned, so a leaf holds one group per
// down-port plus its uplink group however many hosts sit behind it. Among
// multiple candidates, NetConfig::lb_policy picks the egress: per-packet
// spray (workload RNG, the paper default), a stable per-flow hash, flowlet
// re-hashing after an idle gap, or a rate-weighted draw that follows
// currently-degraded links. Flowlet and weighted draws consume a dedicated
// per-switch LB RNG stream so enabling them cannot perturb workload
// arrivals (same isolation contract as the port fault streams).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/device.h"
#include "net/network.h"
#include "util/rng.h"

namespace dcpim::net {

class Switch : public Device {
 public:
  Switch(Network& net, std::string name);

  void receive(PacketPtr p, Port* in) override;
  void on_packet_departed(const Packet& p) override;

  /// Sizes the per-ingress PFC ledgers eagerly at topology-build time, so
  /// the per-packet accounting path never grows a vector.
  void on_port_added(Port& port) override;
  Time ingress_latency() const override {
    return network().config().switch_latency;
  }

  /// Routes `dst_host` over `cands`, local egress port indices in the
  /// order the LB draws index (the builder's BFS port-index order). An
  /// empty list leaves the destination unroutable.
  void set_route(int dst_host, const std::vector<std::uint16_t>& cands);
  /// Candidates for `dst_host`; empty when it has no route.
  std::span<const std::uint16_t> candidates(int dst_host) const;
  /// Distinct next-hop groups this switch holds.
  std::size_t num_groups() const { return groups_.size(); }

  Bytes ingress_buffered(int port_index) const {
    return port_index < static_cast<int>(ingress_bytes_.size())
               ? ingress_bytes_[static_cast<std::size_t>(port_index)]
               : Bytes{};
  }

  /// Whether this switch has asked the upstream peer of `port_index` to
  /// pause (the PFC ledger side; the peer's paused() lags by propagation).
  bool ingress_paused(int port_index) const {
    return port_index < static_cast<int>(ingress_paused_.size()) &&
           ingress_paused_[static_cast<std::size_t>(port_index)];
  }

  std::uint64_t pfc_pauses_sent = 0;

 private:
  /// Flowlet policy state: the sticky egress pick and the last time this
  /// flow sent through here. Looked up by flow id (never iterated).
  struct FlowletState {
    std::uint16_t pick = 0;
    bool valid = false;
    TimePoint last{};
  };

  /// route_ entry of a destination without candidates.
  static constexpr std::uint16_t kNoRoute = 0xFFFF;

  Port* select_egress(const Packet& p);
  std::size_t weighted_pick(const std::vector<std::uint16_t>& cands);
  void pfc_account_arrival(Packet& p, Port* in);
  void pfc_update(int ingress_index);

  /// route_[dst_host] indexes groups_ (or is kNoRoute).
  std::vector<std::uint16_t> route_;
  std::vector<std::vector<std::uint16_t>> groups_;
  std::vector<Bytes> ingress_bytes_;
  std::vector<bool> ingress_paused_;
  /// LB RNG stream, disjoint from the workload RNG and the per-port fault
  /// streams; seeded from (network seed, device id) at topology-build time
  /// (on_port_added — the device id is not assigned yet in the
  /// constructor).
  Rng lb_rng_;
  std::unordered_map<std::uint64_t, FlowletState> flowlet_;
};

}  // namespace dcpim::net
