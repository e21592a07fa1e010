#include "epicast/metrics/result_json.hpp"

#include <cstddef>
#include <sstream>

namespace epicast::metrics {

std::string result_json(const ScenarioResult& r) {
  std::ostringstream os;
  os.precision(17);
  const auto& g = r.gossip_totals;
  const auto& f = r.fault;
  os << "{\n"
     << "  \"delivery_rate\": " << r.delivery_rate << ",\n"
     << "  \"eventual_delivery_rate\": " << r.eventual_delivery_rate << ",\n"
     << "  \"receivers_per_event\": " << r.receivers_per_event << ",\n"
     << "  \"mean_recovery_latency_s\": " << r.mean_recovery_latency_s
     << ",\n"
     << "  \"events_published\": " << r.events_published << ",\n"
     << "  \"events_tracked\": " << r.events_tracked << ",\n"
     << "  \"expected_pairs\": " << r.expected_pairs << ",\n"
     << "  \"delivered_pairs\": " << r.delivered_pairs << ",\n"
     << "  \"recovered_pairs\": " << r.recovered_pairs << ",\n"
     << "  \"gossip_msgs_per_dispatcher\": " << r.gossip_msgs_per_dispatcher
     << ",\n"
     << "  \"gossip_event_ratio\": " << r.gossip_event_ratio << ",\n"
     << "  \"gossip\": {\n"
     << "    \"rounds\": " << g.rounds << ",\n"
     << "    \"digests_originated\": " << g.digests_originated << ",\n"
     << "    \"digests_forwarded\": " << g.digests_forwarded << ",\n"
     << "    \"requests_sent\": " << g.requests_sent << ",\n"
     << "    \"events_recovered\": " << g.events_recovered << ",\n"
     << "    \"request_timeouts\": " << g.request_timeouts << ",\n"
     << "    \"request_retries\": " << g.request_retries << ",\n"
     << "    \"requests_abandoned\": " << g.requests_abandoned << "\n"
     << "  },\n"
     << "  \"reconfig\": {\n"
     << "    \"breaks\": " << r.reconfig_breaks << ",\n"
     << "    \"repairs\": " << r.reconfig_repairs << ",\n"
     << "    \"deferred\": " << r.reconfig_deferred << ",\n"
     << "    \"drops_no_link\": " << r.drops_no_link << "\n"
     << "  },\n"
     << "  \"fault\": {\n"
     << "    \"crashes\": " << f.stats.crashes << ",\n"
     << "    \"restarts\": " << f.stats.restarts << ",\n"
     << "    \"cold_restarts\": " << f.stats.cold_restarts << ",\n"
     << "    \"crash_drops\": " << f.stats.crash_drops << ",\n"
     << "    \"burst_drops\": " << f.stats.burst_drops << ",\n"
     << "    \"bursts_entered\": " << f.stats.bursts_entered << ",\n"
     << "    \"partitions_applied\": " << f.stats.partitions_applied << ",\n"
     << "    \"partitions_healed\": " << f.stats.partitions_healed << ",\n"
     << "    \"heal_skipped_links\": " << f.stats.heal_skipped_links << ",\n"
     << "    \"slow_windows\": " << f.stats.slow_windows << ",\n"
     << "    \"last_heal_s\": " << f.last_heal_s << ",\n"
     << "    \"post_heal_convergence_s\": " << f.post_heal_convergence_s
     << ",\n"
     << "    \"epochs\": [";
  for (std::size_t i = 0; i < f.epochs.size(); ++i) {
    const fault::FaultEpoch& e = f.epochs[i];
    os << (i == 0 ? "\n" : ",\n")
       << "      {\"label\": \"" << e.label << "\", \"start_s\": " << e.start_s
       << ", \"end_s\": " << e.end_s
       << ", \"expected_pairs\": " << e.expected_pairs
       << ", \"delivered_pairs\": " << e.delivered_pairs
       << ", \"eventual_pairs\": " << e.eventual_pairs << "}";
  }
  const auto& m = r.memory;
  os << (f.epochs.empty() ? "]\n" : "\n    ]\n") << "  },\n"
     << "  \"memory\": {\n"
     << "    \"topology_bytes\": " << m.topology_bytes << ",\n"
     << "    \"routing_bytes\": " << m.routing_bytes << ",\n"
     << "    \"seen_bytes\": " << m.seen_bytes << ",\n"
     << "    \"cache_bytes\": " << m.cache_bytes << ",\n"
     << "    \"tracker_bytes\": " << m.tracker_bytes << ",\n"
     << "    \"total_bytes\": " << m.total_bytes() << ",\n"
     << "    \"bytes_per_node\": " << m.bytes_per_node() << "\n"
     << "  },\n"
     << "  \"sim_events_executed\": " << r.sim_events_executed << "\n"
     << "}\n";
  return os.str();
}

}  // namespace epicast::metrics
