#include "epicast/oracle/oracle.hpp"

#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/oracle/checks.hpp"
#include "epicast/sim/lane_context.hpp"

namespace epicast::oracle {

const OracleContext& Oracle::ctx() const {
  EPICAST_ASSERT_MSG(suite_ != nullptr,
                     "oracle used before OracleSuite::add()");
  return suite_->ctx_;
}

void Oracle::checked() {
  suite_->checks_.fetch_add(1, std::memory_order_relaxed);
}

void Oracle::fail(NodeId node, std::string detail) {
  suite_->report(*this, node, std::move(detail));
}

OracleSuite::OracleSuite(OracleContext ctx, FailMode mode)
    : ctx_(ctx), mode_(mode) {}

void OracleSuite::add(std::unique_ptr<Oracle> oracle) {
  EPICAST_ASSERT(oracle != nullptr);
  oracle->suite_ = this;
  oracles_.push_back(std::move(oracle));
}

void OracleSuite::notify_publish(const EventPtr& event) {
  for (const auto& o : oracles_) o->on_publish(event);
}

void OracleSuite::notify_delivery(NodeId node, const EventPtr& event,
                                  bool recovered) {
  for (const auto& o : oracles_) o->on_delivery(node, event, recovered);
}

void OracleSuite::notify_scenario_end() {
  for (const auto& o : oracles_) o->on_scenario_end();
}

void OracleSuite::on_send(NodeId from, NodeId to, const Message& msg,
                          bool overlay) {
  // Once sync_observer() has been handed out, the concurrent-safe oracles
  // are covered by that inline observer — dispatching them here too would
  // double-check every send.
  dispatch_send(from, to, msg, overlay, /*safe_group=*/false);
  if (!split_dispatch_) dispatch_send(from, to, msg, overlay,
                                      /*safe_group=*/true);
}

void OracleSuite::dispatch_send(NodeId from, NodeId to, const Message& msg,
                                bool overlay, bool safe_group) {
  for (const auto& o : oracles_) {
    if (o->concurrent_safe() == safe_group) o->on_send(from, to, msg, overlay);
  }
}

TransportObserver& OracleSuite::sync_observer() {
  sync_.suite = this;
  split_dispatch_ = true;
  return sync_;
}

void OracleSuite::report(const Oracle& oracle, NodeId node,
                         std::string detail) {
  const std::lock_guard<std::mutex> lock(report_mu_);
  const SimTime when = LaneContext::now_or(
      ctx_.sim != nullptr ? ctx_.sim->now() : SimTime::zero());
  Violation v{when, node, oracle.name(), std::move(detail)};
  if (mode_ == FailMode::Abort) {
    const std::string msg = "conformance oracle '" + v.oracle +
                            "' violated at t=" + to_string(v.when) +
                            " node=" + std::to_string(v.node.value()) + ": " +
                            v.detail;
    detail::assert_fail("oracle violation", __FILE__, __LINE__, msg);
  }
  violations_.push_back(std::move(v));
}

void add_default_oracles(OracleSuite& suite) {
  suite.add(std::make_unique<UniqueDeliveryOracle>());
  suite.add(std::make_unique<MatchingDeliveryOracle>());
  suite.add(std::make_unique<ConservationOracle>());
  suite.add(std::make_unique<BufferBoundOracle>());
  suite.add(std::make_unique<DigestCoverageOracle>());
  suite.add(std::make_unique<WireRoundTripOracle>());
}

bool oracles_enabled_by_default() {
#ifdef EPICAST_NO_ORACLES
  return false;
#else
  return true;
#endif
}

}  // namespace epicast::oracle
