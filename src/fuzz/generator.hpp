#pragma once

// Seeded scenario generator: draws random-but-valid ScenarioConfigs from
// the full cross-product the simulator supports — topology family x
// protocol x traffic model x a multi-event fault plan. Every draw comes
// from one Rng, so a campaign seed reproduces the exact scenario stream.
//
// Validity matters: the fault injector throws for links that don't exist,
// and the harness would bank that as a finding. The generator therefore
// materializes the topology first (scenarioTopology) and only references
// real edges and in-range nodes.

#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "sim/random.hpp"
#include "topo/topology.hpp"

namespace rcsim::fuzz {

/// Draw a random fault plan of 1..5 events inside [windowStart,
/// windowEnd] seconds, referencing only `topo`'s real edges and nodes.
[[nodiscard]] fault::FaultPlan generateFaultPlan(Rng& rng, const Topology& topo,
                                                 double windowStart, double windowEnd);

/// Draw one complete scenario. The result always constructs and never
/// references a nonexistent link; anything the run does beyond that is
/// the simulator's problem — which is the point.
[[nodiscard]] ScenarioConfig generateScenario(Rng& rng);

/// Move an event to `at`. A churn event carries its window along (stop
/// shifts by the same amount), so mutation and minimization treat it as
/// one unit that stays valid.
void retimeEvent(fault::FaultEvent& ev, Time at);

/// Rewrite a fault plan so every reference is valid for `topo`: dangling
/// link endpoints are redrawn from the real edge list, node ids are
/// clamped into range, out-of-range partition members are dropped.
/// Mutations that change the topology call this to stay valid.
[[nodiscard]] fault::FaultPlan remapPlanToTopology(const fault::FaultPlan& plan,
                                                   const Topology& topo, Rng& rng);

}  // namespace rcsim::fuzz
