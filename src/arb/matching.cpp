#include "arb/matching.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "sim/error.hpp"

namespace ssq::arb {

std::string_view match_kind_name(MatchKind kind) noexcept {
  switch (kind) {
    case MatchKind::None: return "none";
    case MatchKind::Islip: return "islip";
    case MatchKind::Qps: return "qps";
    case MatchKind::SwQps: return "swqps";
    case MatchKind::Ssvc: return "ssvc";
    case MatchKind::Starve: return "starve";
  }
  return "?";
}

MatchKind parse_match_kind(std::string_view name) {
  for (MatchKind k : {MatchKind::None, MatchKind::Islip, MatchKind::Qps,
                      MatchKind::SwQps, MatchKind::Ssvc, MatchKind::Starve}) {
    if (match_kind_name(k) == name) return k;
  }
  throw ssq::ConfigError("unknown matching engine '" + std::string(name) +
                         "' (none|islip|qps|swqps|ssvc|starve) [" __FILE__
                         ":" +
                         std::to_string(__LINE__) + "]");
}

std::uint32_t MatchingEngine::rotate_pick(std::uint64_t mask,
                                          std::uint32_t from) noexcept {
  const std::uint64_t at_or_after = mask & ~((1ULL << from) - 1);  // from < 64
  return static_cast<std::uint32_t>(
      std::countr_zero(at_or_after != 0 ? at_or_after : mask));
}

namespace {

/// Samples one output from `mask` with probability proportional to the
/// backlog of (i, o). Precondition: mask != 0 and every bit carries a
/// positive backlog.
OutputId sample_proportional(Rng& rng, const MatchView& view, InputId i,
                             std::uint64_t mask) {
  std::uint64_t total = 0;
  for (std::uint64_t w = mask; w != 0; w &= w - 1) {
    total += view.backlog(i, static_cast<OutputId>(std::countr_zero(w)));
  }
  SSQ_ENSURE(total > 0);
  std::uint64_t r = rng.below(total);
  for (std::uint64_t w = mask; w != 0; w &= w - 1) {
    const auto o = static_cast<OutputId>(std::countr_zero(w));
    const std::uint64_t len = view.backlog(i, o);
    if (r < len) return o;
    r -= len;
  }
  SSQ_EXPECT(false && "proportional sample fell off the distribution");
  return kNoPort;
}

/// Per-input mask of inputs with at least one eligible output.
std::uint64_t free_inputs(const MatchView& view) {
  std::uint64_t mask = 0;
  for (InputId i = 0; i < view.radix; ++i) {
    if (view.eligible[i] != 0) mask |= 1ULL << i;
  }
  return mask;
}

}  // namespace

// ---------------------------------------------------------------- iSLIP --

IslipEngine::IslipEngine(std::uint32_t radix, std::uint32_t iterations)
    : MatchingEngine(radix), iterations_(iterations) {
  SSQ_EXPECT(iterations >= 1);
  grant_ptr_.assign(radix, 0);
  accept_ptr_.assign(radix, 0);
  requests_.assign(radix, 0);
  offered_.assign(radix, 0);
}

std::uint32_t IslipEngine::match(const MatchView& view,
                                 std::span<InputId> match_in) {
  const std::uint32_t radix = view.radix;
  for (auto& m : match_in) m = kNoPort;
  std::uint64_t in_free = free_inputs(view);
  if (in_free == 0) return 1;

  // Transpose eligibility into per-output request masks once; iterations
  // shrink them via in_free. out_open = the unmatched outputs with a
  // requester left.
  std::fill(requests_.begin(), requests_.end(), 0ULL);
  std::uint64_t out_open = 0;
  for (std::uint64_t w = in_free; w != 0; w &= w - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(w));
    out_open |= view.eligible[i];
    for (std::uint64_t e = view.eligible[i]; e != 0; e &= e - 1) {
      requests_[static_cast<std::size_t>(std::countr_zero(e))] |= 1ULL << i;
    }
  }

  std::uint32_t used = 0;
  for (std::uint32_t iter = 0; iter < iterations_; ++iter) {
    ++used;
    // GRANT: each open output grants the first unmatched requester at or
    // after its pointer, into that input's offer mask.
    std::uint64_t granted = 0;  // inputs holding >= 1 offer
    for (std::uint64_t w = out_open; w != 0; w &= w - 1) {
      const auto o = static_cast<OutputId>(std::countr_zero(w));
      const std::uint64_t req = requests_[o] & in_free;
      if (req == 0) {
        out_open &= ~(1ULL << o);  // in_free only shrinks
        continue;
      }
      const std::uint32_t i = rotate_pick(req, grant_ptr_[o]);
      offered_[i] |= 1ULL << o;
      granted |= 1ULL << i;
    }
    if (granted == 0) break;

    // ACCEPT: each granted input takes the first offer at or after its
    // pointer. Pointers move only on first-iteration accepts — the update
    // rule behind iSLIP's pointer desynchronisation and its 100% throughput
    // under saturated uniform traffic.
    for (std::uint64_t w = granted; w != 0; w &= w - 1) {
      const auto i = static_cast<InputId>(std::countr_zero(w));
      const auto o =
          static_cast<OutputId>(rotate_pick(offered_[i], accept_ptr_[i]));
      offered_[i] = 0;
      match_in[o] = i;
      in_free &= ~(1ULL << i);
      out_open &= ~(1ULL << o);
      if (iter == 0) {
        grant_ptr_[o] = (i + 1) % radix;
        accept_ptr_[i] = (o + 1) % radix;
      }
    }
    if (in_free == 0) break;
  }
  return used;
}

// ---------------------------------------------------------------- QPS-r --

QpsEngine::QpsEngine(std::uint32_t radix, std::uint32_t iterations,
                     std::uint64_t seed)
    : MatchingEngine(radix), iterations_(iterations), rng_(seed) {
  SSQ_EXPECT(iterations >= 1);
  proposer_.assign(radix, kNoPort);
  prop_len_.assign(radix, 0);
}

std::uint32_t QpsEngine::match(const MatchView& view,
                               std::span<InputId> match_in) {
  const std::uint32_t radix = view.radix;
  for (auto& m : match_in) m = kNoPort;
  std::uint64_t in_free = free_inputs(view);
  if (in_free == 0) return 1;

  std::uint64_t out_taken = 0;
  std::uint32_t used = 0;
  for (std::uint32_t iter = 0; iter < iterations_ && in_free != 0; ++iter) {
    // PROPOSE: every still-unmatched backlogged input samples one
    // still-free output, queue-proportionally. Each output keeps the
    // proposal with the longest VOQ (ties: lowest input — the ascending
    // scan makes the comparison strict).
    std::fill(proposer_.begin(), proposer_.end(), kNoPort);
    bool any = false;
    for (std::uint64_t w = in_free; w != 0; w &= w - 1) {
      const auto i = static_cast<InputId>(std::countr_zero(w));
      const std::uint64_t elig = view.eligible[i] & ~out_taken;
      if (elig == 0) continue;
      const OutputId o = sample_proportional(rng_, view, i, elig);
      const std::uint32_t len = view.backlog(i, o);
      if (proposer_[o] == kNoPort || len > prop_len_[o]) {
        proposer_[o] = i;
        prop_len_[o] = len;
      }
      any = true;
    }
    if (!any) break;
    ++used;

    // ACCEPT: the surviving proposal of each output becomes a match.
    for (OutputId o = 0; o < radix; ++o) {
      const InputId i = proposer_[o];
      if (i == kNoPort) continue;
      match_in[o] = i;
      in_free &= ~(1ULL << i);
      out_taken |= 1ULL << o;
    }
  }
  return std::max<std::uint32_t>(used, 1);
}

// --------------------------------------------------------------- SW-QPS --

SwQpsEngine::SwQpsEngine(std::uint32_t radix, std::uint32_t window,
                         std::uint64_t seed)
    : MatchingEngine(radix), rng_(seed) {
  SSQ_EXPECT(window >= 1);
  frames_.resize(window);
  for (auto& f : frames_) f.match_in.assign(radix, kNoPort);
}

void SwQpsEngine::clear_frame(Frame& f) {
  std::fill(f.match_in.begin(), f.match_in.end(), kNoPort);
  f.in_used = 0;
  f.out_used = 0;
}

std::uint32_t SwQpsEngine::frame_size(std::uint32_t k) const {
  SSQ_EXPECT(k < frames_.size());
  return static_cast<std::uint32_t>(std::popcount(frames_[k].out_used));
}

std::uint32_t SwQpsEngine::match(const MatchView& view,
                                 std::span<InputId> match_in) {
  const std::uint32_t radix = view.radix;

  // 1. Retire drained pairs from every frame. Beyond keeping the window
  // honest, this guarantees the window is EMPTY whenever the switch holds
  // no packets at all — which is what makes skipping quiescent cycles
  // (idle fast-forward never calls match()) exact.
  for (auto& f : frames_) {
    if (f.out_used == 0) continue;
    for (std::uint64_t w = f.out_used; w != 0; w &= w - 1) {
      const auto o = static_cast<OutputId>(std::countr_zero(w));
      const InputId i = f.match_in[o];
      if (view.backlog(i, o) != 0) continue;
      f.match_in[o] = kNoPort;
      f.in_used &= ~(1ULL << i);
      f.out_used &= ~(1ULL << o);
    }
  }

  // 2. One QPS proposing round: each backlogged input samples one output
  // (from `candidates` — a busy channel now is no reason not to book a
  // future frame) and the pair lands in the EARLIEST frame where both ends
  // are still free. Frames only ever gain edges here, so a frame's matching
  // size never shrinks while it waits (the SW-QPS refinement guarantee);
  // edges only leave through departure or backlog drain above.
  for (InputId i = 0; i < radix; ++i) {
    const std::uint64_t cand = view.candidates[i];
    if (cand == 0) continue;
    const OutputId o = sample_proportional(rng_, view, i, cand);
    for (auto& f : frames_) {
      if (((f.in_used >> i) | (f.out_used >> o)) & 1ULL) continue;
      f.match_in[o] = i;
      f.in_used |= 1ULL << i;
      f.out_used |= 1ULL << o;
      break;
    }
  }

  // 3. The departing frame is this cycle's matching, filtered down to pairs
  // that are actually servable now (ends idle, link alive).
  Frame& head = frames_.front();
  for (OutputId o = 0; o < radix; ++o) {
    const InputId i = head.match_in[o];
    match_in[o] =
        (i != kNoPort && ((view.eligible[i] >> o) & 1ULL)) ? i : kNoPort;
  }

  // 4. Slide the window: frame k+1 becomes frame k, a fresh frame enters.
  clear_frame(head);
  std::rotate(frames_.begin(), frames_.begin() + 1, frames_.end());
  return 1;
}

// ---------------------------------------------------- SSVC single-request --

SsvcSingleRequestEngine::SsvcSingleRequestEngine(std::uint32_t radix)
    : MatchingEngine(radix) {
  request_ptr_.assign(radix, 0);
  last_grant_.assign(static_cast<std::size_t>(radix) * radix, 0);
  requests_.assign(radix, 0);
}

std::uint32_t SsvcSingleRequestEngine::match(const MatchView& view,
                                             std::span<InputId> match_in) {
  const std::uint32_t radix = view.radix;
  for (auto& m : match_in) m = kNoPort;

  // Each input raises ONE request: the first eligible output at or after
  // its rotating pointer (the paper's one-bus-per-input model).
  std::fill(requests_.begin(), requests_.end(), 0ULL);
  bool any = false;
  for (InputId i = 0; i < radix; ++i) {
    const std::uint64_t elig = view.eligible[i];
    if (elig == 0) continue;
    requests_[rotate_pick(elig, request_ptr_[i])] |= 1ULL << i;
    any = true;
  }
  if (!any) return 1;

  // Each output grants its least-recently-granted requester (LRG).
  for (OutputId o = 0; o < radix; ++o) {
    std::uint64_t req = requests_[o];
    if (req == 0) continue;
    InputId winner = kNoPort;
    std::uint64_t oldest = 0;
    for (; req != 0; req &= req - 1) {
      const auto i = static_cast<InputId>(std::countr_zero(req));
      const std::uint64_t stamp =
          last_grant_[static_cast<std::size_t>(o) * radix + i];
      if (winner == kNoPort || stamp < oldest) {
        winner = i;
        oldest = stamp;
      }
    }
    match_in[o] = winner;
    last_grant_[static_cast<std::size_t>(o) * radix + winner] = ++grant_seq_;
    request_ptr_[winner] = (o + 1) % radix;
  }
  return 1;
}

// --------------------------------------------------------------- factory --

std::unique_ptr<MatchingEngine> make_engine(MatchKind kind,
                                            std::uint32_t radix,
                                            std::uint32_t iterations,
                                            std::uint64_t seed) {
  switch (kind) {
    case MatchKind::None:
      throw ssq::ConfigError(
          "make_engine: MatchKind::None is the per-output arbiter path, not "
          "an engine [" __FILE__ "]");
    case MatchKind::Islip:
      return std::make_unique<IslipEngine>(radix, iterations);
    case MatchKind::Qps:
      return std::make_unique<QpsEngine>(radix, iterations, seed);
    case MatchKind::SwQps:
      return std::make_unique<SwQpsEngine>(radix, iterations, seed);
    case MatchKind::Ssvc:
      return std::make_unique<SsvcSingleRequestEngine>(radix);
    case MatchKind::Starve:
      return std::make_unique<StarvingEngine>(radix);
  }
  throw ssq::ConfigError("make_engine: unhandled matching engine kind " +
                         std::to_string(static_cast<int>(kind)));
}

}  // namespace ssq::arb
