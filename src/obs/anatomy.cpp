#include "obs/anatomy.hpp"

#include <array>
#include <type_traits>

namespace rcsim::obs {

namespace {

/// Disruption events that open (or merge into) an episode. AdjDown is
/// deliberately absent: adjacency loss is *detection*, and a false
/// positive without a real disruption must not fabricate an episode.
bool isTrigger(TraceKind kind) {
  return kind == TraceKind::FaultApply || kind == TraceKind::LinkDown ||
         kind == TraceKind::LinkUp;
}

/// Bill `out` (an episode or the whole-run report) the data-plane fates
/// and control messages the tally counted between `from` and `to`. A TTL
/// expiry while the walked path loops is a loop drop, any other TTL expiry
/// is plain TTL; NoRoute is the black-hole signature.
template <class Out>
void bill(Out& out, const StatsCollector::Tally& from, const StatsCollector::Tally& to) {
  const PacketCounters& a = from.data;
  const PacketCounters& b = to.data;
  out.delivered = b.delivered - a.delivered;
  out.dropsLoop = to.dropTtlInLoop - from.dropTtlInLoop;
  out.dropsTtl = b.dropTtl - a.dropTtl - out.dropsLoop;
  out.dropsBlackhole = b.dropNoRoute - a.dropNoRoute;
  out.dropsQueue = b.dropQueue - a.dropQueue;
  out.dropsOther = (b.totalDropped() - a.totalDropped()) -
                   (b.dropTtl - a.dropTtl + out.dropsBlackhole + out.dropsQueue);
  out.controlMessages = to.controlMessages - from.controlMessages;
  out.controlBytes = to.controlBytes - from.controlBytes;
}

}  // namespace

AnatomySummary& AnatomySummary::operator+=(const AnatomySummary& rhs) {
  // Both walks visit the same rows in the same order, so row i of rhs
  // adds into row i of *this, a member of the same type. The table has 25
  // rows; at() throws if it outgrows the array.
  std::array<const void*, 32> addends{};
  std::size_t n = 0;
  forEachField(rhs, [&](const char*, const auto& x, auto) { addends.at(n++) = &x; });
  std::size_t i = 0;
  forEachField(*this, [&](const char*, auto& sum, auto) {
    sum += *static_cast<const std::remove_reference_t<decltype(sum)>*>(addends[i++]);
  });
  return *this;
}

AnatomySummary AnatomyReport::summary() const {
  AnatomySummary s;
  s.episodes = episodes.size();
  for (const auto& e : episodes) {
    s.triggers += static_cast<std::uint64_t>(e.triggerCount);
    if (e.detectAt != Time::infinity()) {
      ++s.detectedEpisodes;
      s.detectionSecTotal += e.detectionSec();
    }
    if (e.firstRouteChangeAt != Time::infinity()) {
      ++s.convergedEpisodes;
      s.convergenceSecTotal += e.convergenceSec();
    }
    s.fibChurn += e.routeChanges;
  }
  s.loopWindows = loopWindows.size();
  for (const auto& w : loopWindows) {
    if (!w.openAtEnd) s.loopSeconds += w.seconds();
  }
  s.blackholeWindows = blackholeWindows.size();
  for (const auto& w : blackholeWindows) {
    if (!w.openAtEnd) s.blackholeSeconds += w.seconds();
  }
  s.dropsLoop = dropsLoop;
  s.dropsBlackhole = dropsBlackhole;
  s.dropsTtl = dropsTtl;
  s.dropsQueue = dropsQueue;
  s.dropsOther = dropsOther;
  s.delivered = delivered;
  s.controlMessages = controlMessages;
  s.controlBytes = controlBytes;
  s.helloMessages = helloMessages;
  s.helloBytes = helloBytes;
  s.dvTriggered = dvTriggered;
  s.dvPeriodic = dvPeriodic;
  s.mraiArmed = mraiArmed;
  s.mraiFired = mraiFired;
  return s;
}

ConvergenceAnalyzer::ConvergenceAnalyzer(const StatsCollector& tally, const Tracer& tracer)
    : tally_{tally}, tracer_{tracer} {}

void ConvergenceAnalyzer::onTraceEvent(const TraceEvent& ev) {
  if (finished_) return;
  if (isTrigger(ev.kind)) openEpisode(ev);
  ConvergenceEpisode* ep = episodeOpen_ ? &report_.episodes.back() : nullptr;
  if (ev.kind == TraceKind::RouteChange) {
    if (ep != nullptr) {
      if (ep->detectAt == Time::infinity()) ep->detectAt = ev.t;
      if (ep->firstRouteChangeAt == Time::infinity()) ep->firstRouteChangeAt = ev.t;
      ep->lastRouteChangeAt = ev.t;
      ++ep->routeChanges;
    }
    // The collector walked this change before us.
    const auto& paths = tally_.pathWalker().events();
    while (pathsSeen_ < paths.size()) recordPath(paths[pathsSeen_++]);
  } else if (ev.kind == TraceKind::AdjDown) {
    if (ep != nullptr && ep->detectAt == Time::infinity()) ep->detectAt = ev.t;
  }
}

void ConvergenceAnalyzer::openEpisode(const TraceEvent& ev) {
  if (episodeOpen_ && report_.episodes.back().start == ev.t) {
    // Same-timestamp triggers are one disruption: a FaultApply whose
    // synchronous link failure emits LinkDown at the same instant, or a
    // partition cutting several links at once.
    ++report_.episodes.back().triggerCount;
    return;
  }
  ConvergenceEpisode e;
  e.start = ev.t;
  e.trigger = ev.kind;
  e.triggerCount = 1;
  report_.episodes.push_back(e);
  marks_.push_back(tally_.tally());
  episodeOpen_ = true;
}

void ConvergenceAnalyzer::recordPath(const ReplayPathEvent& e) {
  report_.pathEvents.push_back(e);
  foldWindow(e.loop, e.t, loop_, report_.loopWindows, &ConvergenceEpisode::loopWindows,
             &ConvergenceEpisode::loopSeconds);
  foldWindow(e.blackhole, e.t, blackhole_, report_.blackholeWindows,
             &ConvergenceEpisode::blackholeWindows, &ConvergenceEpisode::blackholeSeconds);
}

void ConvergenceAnalyzer::foldWindow(bool on, Time t, OpenWindow& state,
                                     std::vector<ReplayWindow>& windows,
                                     int ConvergenceEpisode::*count,
                                     double ConvergenceEpisode::*seconds) {
  if (on == state.open) return;
  state.open = on;
  if (on) {
    // A window belongs to the episode that was open when it began.
    windows.push_back(ReplayWindow{t, t, true});
    state.owner = episodeOpen_ ? report_.episodes.size() - 1 : kNoOwner;
    if (state.owner != kNoOwner) ++(report_.episodes[state.owner].*count);
    return;
  }
  ReplayWindow& w = windows.back();
  w.end = t;
  w.openAtEnd = false;
  if (state.owner != kNoOwner) {
    report_.episodes[state.owner].*seconds += (w.end - w.begin).toSeconds();
  }
  state.owner = kNoOwner;
}

void ConvergenceAnalyzer::finish() {
  if (finished_) return;
  finished_ = true;
  report_.kindCounts = tracer_.kindCounts();
  if (loop_.open && loop_.owner != kNoOwner) report_.episodes[loop_.owner].loopOpenAtEnd = true;
  if (blackhole_.open && blackhole_.owner != kNoOwner) {
    report_.episodes[blackhole_.owner].blackholeOpenAtEnd = true;
  }
  episodeOpen_ = false;

  // Episodes tile the stream from the first trigger on: each is billed
  // what the tally counted up to the next episode's trigger.
  const StatsCollector::Tally& end = tally_.tally();
  for (std::size_t i = 0; i < report_.episodes.size(); ++i) {
    ConvergenceEpisode& e = report_.episodes[i];
    const StatsCollector::Tally& from = marks_[i];
    const StatsCollector::Tally& to = i + 1 < marks_.size() ? marks_[i + 1] : end;
    bill(e, from, to);
    e.mraiDeferred = to.mraiArmed - from.mraiArmed;
    e.dvTriggered = to.dvTriggered - from.dvTriggered;
  }
  bill(report_, StatsCollector::Tally{}, end);
  report_.dropped = end.data.totalDropped();
  report_.helloMessages = end.helloMessages;
  report_.helloBytes = end.helloBytes;
  report_.dvTriggered = end.dvTriggered;
  report_.dvPeriodic = end.dvPeriodic;
  report_.mraiArmed = end.mraiArmed;
  report_.mraiFired = end.mraiFired;
  report_.perNodeControlMessages = tally_.perNodeControlMessages();
  report_.perNodeControlBytes = tally_.perNodeControlBytes();
}

AnatomyReport analyzeTrace(const std::vector<TraceEvent>& events, const ReplayOptions& opt) {
  StatsCollector tally{opt.nodeCount, StatsCollector::Config{opt.src, opt.dst}};
  Tracer tracer;
  tracer.addSink(&tally);
  ConvergenceAnalyzer analyzer{tally, tracer};
  tracer.addSink(&analyzer);
  for (const auto& ev : events) tracer.emit(ev);
  analyzer.finish();
  AnatomyReport report = analyzer.report();
  // The tracer counted only the kinds its two sinks take.
  report.kindCounts = {};
  for (const auto& ev : events) ++report.kindCounts[static_cast<std::size_t>(ev.kind)];
  return report;
}

}  // namespace rcsim::obs
