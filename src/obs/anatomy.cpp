#include "obs/anatomy.hpp"

#include "net/types.hpp"

namespace rcsim::obs {

namespace {

/// Disruption events that open (or merge into) an episode. AdjDown is
/// deliberately absent: adjacency loss is *detection*, and a false
/// positive without a real disruption must not fabricate an episode.
bool isTrigger(TraceKind kind) {
  return kind == TraceKind::FaultApply || kind == TraceKind::LinkDown ||
         kind == TraceKind::LinkUp;
}

/// Per-node control accounting is sized up front; empty for walk-less
/// traces (node count unknown).
AnatomyReport emptyReport(std::size_t nodeCount) {
  AnatomyReport r;
  r.perNodeControlMessages.assign(nodeCount, 0);
  r.perNodeControlBytes.assign(nodeCount, 0);
  return r;
}

}  // namespace

AnatomySummary& AnatomySummary::operator+=(const AnatomySummary& rhs) {
  episodes += rhs.episodes;
  triggers += rhs.triggers;
  detectedEpisodes += rhs.detectedEpisodes;
  detectionSecTotal += rhs.detectionSecTotal;
  convergedEpisodes += rhs.convergedEpisodes;
  convergenceSecTotal += rhs.convergenceSecTotal;
  fibChurn += rhs.fibChurn;
  loopWindows += rhs.loopWindows;
  loopSeconds += rhs.loopSeconds;
  blackholeWindows += rhs.blackholeWindows;
  blackholeSeconds += rhs.blackholeSeconds;
  dropsLoop += rhs.dropsLoop;
  dropsBlackhole += rhs.dropsBlackhole;
  dropsTtl += rhs.dropsTtl;
  dropsQueue += rhs.dropsQueue;
  dropsOther += rhs.dropsOther;
  delivered += rhs.delivered;
  controlMessages += rhs.controlMessages;
  controlBytes += rhs.controlBytes;
  helloMessages += rhs.helloMessages;
  helloBytes += rhs.helloBytes;
  dvTriggered += rhs.dvTriggered;
  dvPeriodic += rhs.dvPeriodic;
  mraiArmed += rhs.mraiArmed;
  mraiFired += rhs.mraiFired;
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

ConvergenceAnalyzer::ConvergenceAnalyzer(const ReplayOptions& opt)
    : ownWalker_{std::make_unique<PathWalker>(opt.src, opt.dst, opt.nodeCount)},
      walker_{ownWalker_.get()},
      report_{emptyReport(opt.nodeCount)} {}

ConvergenceAnalyzer::ConvergenceAnalyzer(std::size_t nodeCount, const PathWalker& walker,
                                         const Tracer& tracer)
    : walker_{&walker}, tracer_{&tracer}, report_{emptyReport(nodeCount)} {}

void ConvergenceAnalyzer::onTraceEvent(const TraceEvent& ev) {
  if (!finished_) analyze(ev);
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

void ConvergenceAnalyzer::analyze(const TraceEvent& ev) {
  if (tracer_ == nullptr) ++report_.kindCounts[static_cast<std::size_t>(ev.kind)];

  if (isTrigger(ev.kind)) openEpisode(ev);
  ConvergenceEpisode* ep = episodeOpen_ ? &report_.episodes.back() : nullptr;

  switch (ev.kind) {
    case TraceKind::RouteChange: {
      if (ep != nullptr) {
        if (ep->detectAt == Time::infinity()) ep->detectAt = ev.t;
        if (ep->firstRouteChangeAt == Time::infinity()) ep->firstRouteChangeAt = ev.t;
        ep->lastRouteChangeAt = ev.t;
        ++ep->routeChanges;
      }
      if (ownWalker_) {
        // A dst beyond NodeId's range is as corrupt as one beyond N, which
        // the walker rejects.
        const NodeId dst = ev.x == static_cast<NodeId>(ev.x) ? static_cast<NodeId>(ev.x)
                                                             : kInvalidNode;
        ownWalker_->onRouteChange(ev.t, ev.a, dst, static_cast<NodeId>(ev.z));
      }
      // A live walker was fed this change by the sink ahead of us.
      const auto& paths = walker_->events();
      while (pathsSeen_ < paths.size()) recordPath(paths[pathsSeen_++]);
      break;
    }
    case TraceKind::AdjDown:
      if (ep != nullptr && ep->detectAt == Time::infinity()) ep->detectAt = ev.t;
      break;
    case TraceKind::Deliver:
      ++report_.delivered;
      if (ep != nullptr) ++ep->delivered;
      break;
    case TraceKind::Drop: {
      if (ev.z != 1) break;  // data packets only; z flags the plane
      ++report_.dropped;
      std::uint64_t ConvergenceEpisode::* field = &ConvergenceEpisode::dropsOther;
      std::uint64_t AnatomyReport::* total = &AnatomyReport::dropsOther;
      switch (static_cast<DropReason>(ev.y)) {
        case DropReason::TtlExpired:
          // A TTL death while the traced path loops is the loop's kill;
          // outside a loop window it is a plain TTL drop.
          field = loop_.open ? &ConvergenceEpisode::dropsLoop : &ConvergenceEpisode::dropsTtl;
          total = loop_.open ? &AnatomyReport::dropsLoop : &AnatomyReport::dropsTtl;
          break;
        case DropReason::NoRoute:
          field = &ConvergenceEpisode::dropsBlackhole;
          total = &AnatomyReport::dropsBlackhole;
          break;
        case DropReason::QueueOverflow:
          field = &ConvergenceEpisode::dropsQueue;
          total = &AnatomyReport::dropsQueue;
          break;
        default: break;
      }
      ++(report_.*total);
      if (ep != nullptr) ++(ep->*field);
      break;
    }
    case TraceKind::ControlSend:
      ++report_.controlMessages;
      report_.controlBytes += static_cast<std::uint64_t>(ev.x);
      if (static_cast<std::size_t>(ev.a) < report_.perNodeControlMessages.size()) {
        ++report_.perNodeControlMessages[static_cast<std::size_t>(ev.a)];
        report_.perNodeControlBytes[static_cast<std::size_t>(ev.a)] +=
            static_cast<std::uint64_t>(ev.x);
      }
      if (ep != nullptr) {
        ++ep->controlMessages;
        ep->controlBytes += static_cast<std::uint64_t>(ev.x);
      }
      break;
    case TraceKind::HelloSend:
      ++report_.helloMessages;
      report_.helloBytes += static_cast<std::uint64_t>(ev.x);
      if (static_cast<std::size_t>(ev.a) < report_.perNodeControlMessages.size()) {
        ++report_.perNodeControlMessages[static_cast<std::size_t>(ev.a)];
        report_.perNodeControlBytes[static_cast<std::size_t>(ev.a)] +=
            static_cast<std::uint64_t>(ev.x);
      }
      break;
    case TraceKind::DvTriggered:
      ++report_.dvTriggered;
      if (ep != nullptr) ++ep->dvTriggered;
      break;
    case TraceKind::DvPeriodic: ++report_.dvPeriodic; break;
    case TraceKind::MraiArm:
      ++report_.mraiArmed;
      if (ep != nullptr) ++ep->mraiDeferred;
      break;
    case TraceKind::MraiFire: ++report_.mraiFired; break;
    default: break;
  }
}

void ConvergenceAnalyzer::finish() {
  if (finished_) return;
  finished_ = true;
  if (tracer_ != nullptr) report_.kindCounts = tracer_->kindCounts();
  if (loop_.open && loop_.owner != kNoOwner) report_.episodes[loop_.owner].loopOpenAtEnd = true;
  if (blackhole_.open && blackhole_.owner != kNoOwner) {
    report_.episodes[blackhole_.owner].blackholeOpenAtEnd = true;
  }
  episodeOpen_ = false;
}

AnatomyReport analyzeTrace(const std::vector<TraceEvent>& events, const ReplayOptions& opt) {
  ConvergenceAnalyzer analyzer{opt};
  for (const auto& ev : events) analyzer.onTraceEvent(ev);
  analyzer.finish();
  return analyzer.report();
}

}  // namespace rcsim::obs
