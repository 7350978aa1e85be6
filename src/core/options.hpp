#pragma once

#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace rcsim {

/// Key=value configuration layer over ScenarioConfig, shared by the CLI
/// tool and scriptable sweeps. Keys mirror the struct fields:
///
///   protocol=RIP|DBF|BGP|BGP3|LS     topology=mesh|random|file|named|inline
///   degree=4 rows=7 cols=7           random.nodes=49 random.avg-degree=4
///   random.tree=1 random.ensure-connected=0
///   file.path=abilene.topo           named.graph=abilene
///   inline.nodes=4 inline.edges=0-1,1-2,2-3
///   pin.src=-1 pin.dst=-1
///   seed=1 flows=1 traffic=cbr|tcp   rate=20 bytes=1000 ttl=127 window=8
///   traffic-start=390 traffic-stop=550
///   failures=1 fail-at=400 fail-spacing=5 repair-after=60 no-failure=1
///   end-at=800
///   bandwidth=10e6 prop-delay-ms=1 queue=20 detect-ms=50
///   hello.enabled=0 hello.interval=1 hello.dead=3.5 hello.jitter=0.2
///   dv.periodic=30 dv.timeout=180 dv.damp-min=1 dv.damp-max=5
///   dv.holddown=0 dv.trigger-min-gap=0
///   dv.infinity=16 dv.max-entries=25 dv.poison=1
///   bgp.mrai-min=22.5 bgp.mrai-max=30 bgp.per-dest-mrai=0
///   bgp.wd-exempt=1 bgp.assertions=0 bgp.rfd=0 bgp.rfd-penalty=1000
///   bgp.rfd-half-life=15 bgp.rfd-suppress=2000 bgp.rfd-reuse=750
///   ls.spf-delay-ms=10 ls.refresh=300
///   dual.sia-timeout=10 dual.max-distance=512
///
/// Throws std::invalid_argument on unknown keys or malformed values.
void applyOption(ScenarioConfig& cfg, const std::string& key, const std::string& value);

/// Canonical digest of a config: FNV-1a over the newline-joined
/// describeOptions rendering. Keys journal records and the fuzzer's corpus.
[[nodiscard]] std::string scenarioDigest(const ScenarioConfig& cfg);

/// Split "key=value" and apply. Accepts an optional leading "--".
void applyOptionString(ScenarioConfig& cfg, const std::string& arg);

/// Render the config back to the canonical key=value list (round-trips
/// through applyOption); handy for logging exactly what a run used.
[[nodiscard]] std::vector<std::string> describeOptions(const ScenarioConfig& cfg);

}  // namespace rcsim
