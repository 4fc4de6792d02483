#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/runner.hpp"

namespace athena::fault {

const char* ToString(Stream stream) {
  switch (stream) {
    case Stream::kTelemetry: return "telemetry";
    case Stream::kSenderCapture: return "sender_capture";
    case Stream::kCoreCapture: return "core_capture";
    case Stream::kReceiverCapture: return "receiver_capture";
    case Stream::kPackets: return "packets";
  }
  return "?";
}

void FaultStats::PublishMetrics() const {
  if (!obs::metrics_enabled()) return;
  for (std::size_t i = 0; i < kStreamCount; ++i) {
    const PerStream& s = streams[i];
    if (s.seen == 0 && s.faults() == 0) continue;
    const std::string prefix = std::string("fault.") + ToString(static_cast<Stream>(i));
    obs::SetGauge(prefix + ".seen", static_cast<double>(s.seen));
    obs::SetGauge(prefix + ".dropped",
                  static_cast<double>(s.dropped + s.outage_dropped + s.truncated));
    obs::SetGauge(prefix + ".duplicated", static_cast<double>(s.duplicated));
    obs::SetGauge(prefix + ".flooded", static_cast<double>(s.flooded));
    obs::SetGauge(prefix + ".reordered", static_cast<double>(s.reordered));
    obs::SetGauge(prefix + ".delayed", static_cast<double>(s.delayed));
    obs::SetGauge(prefix + ".corrupted", static_cast<double>(s.corrupted));
    obs::SetGauge(prefix + ".clock_stepped", static_cast<double>(s.clock_stepped));
  }
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(plan), seed_(seed) {}

namespace {

/// One record held back by the bounded reorder buffer: re-emitted once
/// `countdown` later records have passed it.
template <typename Record>
struct Held {
  Record record;
  std::int64_t countdown = 0;
};

}  // namespace

template <typename Record, typename TsOf, typename SetTs, typename Corrupt>
void FaultInjector::ApplyImpl(Stream stream, std::vector<Record>& records, TsOf ts_of,
                              SetTs set_ts, Corrupt corrupt) {
  FaultStats::PerStream& st = stats_.For(stream);
  st.seen += records.size();
  const FaultSpec& spec = plan_.For(stream);
  if (!spec.active() || records.empty()) return;

  // One independent sub-stream per (seed, stream): transforming stream A
  // never shifts stream B's draws, whatever order Apply is called in.
  sim::Rng rng{sim::DeriveSeed(seed_, static_cast<std::uint64_t>(stream))};

  // Clock drift is relative to the stream's first observation; truncation
  // cuts the tail of the stream's observed time span.
  sim::TimePoint first_ts = ts_of(records.front());
  sim::TimePoint last_ts = first_ts;
  for (const Record& r : records) {
    first_ts = std::min(first_ts, ts_of(r));
    last_ts = std::max(last_ts, ts_of(r));
  }
  const bool truncating = spec.truncate_after_fraction < 1.0;
  const sim::TimePoint truncate_at =
      first_ts + sim::Duration{static_cast<std::int64_t>(
                     static_cast<double>((last_ts - first_ts).count()) *
                     std::max(0.0, spec.truncate_after_fraction))};

  std::vector<Record> out;
  out.reserve(records.size());
  std::deque<Held<Record>> held;

  auto emit = [&](Record&& r) {
    out.push_back(std::move(r));
    // A passing record ages every held one; expired records re-enter here.
    for (auto it = held.begin(); it != held.end();) {
      if (--it->countdown <= 0) {
        out.push_back(std::move(it->record));
        it = held.erase(it);
      } else {
        ++it;
      }
    }
  };

  for (Record& r : records) {
    const sim::TimePoint ts = ts_of(r);

    // Window faults first — they model the collector being absent, so no
    // other fault applies to a record that was never collected.
    if (spec.outage_end > spec.outage_begin && ts >= spec.outage_begin &&
        ts < spec.outage_end) {
      ++st.outage_dropped;
      continue;
    }
    if (truncating && ts > truncate_at) {
      ++st.truncated;
      continue;
    }
    if (spec.drop > 0.0 && rng.Bernoulli(spec.drop)) {
      ++st.dropped;
      continue;
    }

    // Clock faults move the local timestamp only; ground truth stays put.
    sim::TimePoint new_ts = ts;
    if (spec.clock_drift_ppm != 0.0) {
      new_ts += sim::Duration{static_cast<std::int64_t>(
          std::llround(static_cast<double>((ts - first_ts).count()) *
                       spec.clock_drift_ppm * 1e-6))};
    }
    if (spec.clock_step.count() != 0 && ts >= spec.clock_step_at) {
      new_ts += spec.clock_step;
      ++st.clock_stepped;
    }
    if (spec.delay > 0.0 && rng.Bernoulli(spec.delay)) {
      new_ts += rng.UniformDuration(spec.delay_min, spec.delay_max);
      ++st.delayed;
    }
    if (new_ts != ts) set_ts(r, new_ts);

    if (spec.corrupt > 0.0 && rng.Bernoulli(spec.corrupt)) {
      corrupt(r, rng);
      ++st.corrupted;
    }

    const bool dup = spec.duplicate > 0.0 && rng.Bernoulli(spec.duplicate);
    if (dup) {
      ++st.duplicated;
      emit(Record{r});
    }
    if (spec.flood_factor > 1.0) {
      // Expected flood_factor total copies: emit the integer part of the
      // surplus always, the fractional part probabilistically. Each copy
      // gets a small timestamp jitter so it is a *near*-duplicate the
      // correlator's exact-dedup keeps — offered load really grows.
      const double extra = spec.flood_factor - 1.0;
      auto copies = static_cast<std::int64_t>(extra);
      const double frac = extra - static_cast<double>(copies);
      if (frac > 0.0 && rng.Bernoulli(frac)) ++copies;
      for (std::int64_t c = 0; c < copies; ++c) {
        ++st.flooded;
        Record copy{r};
        set_ts(copy, ts_of(copy) + rng.UniformDuration(sim::Duration{1}, sim::Duration{50}));
        emit(Record{copy});
      }
    }
    if (spec.reorder > 0.0 && rng.Bernoulli(spec.reorder)) {
      ++st.reordered;
      held.push_back(Held<Record>{
          std::move(r),
          rng.UniformInt(1, static_cast<std::int64_t>(std::max<std::size_t>(
                                1, spec.reorder_depth)))});
      continue;
    }
    emit(std::move(r));
  }
  // Stream end: whatever is still held back surfaces now (bounded by
  // reorder_depth, so nothing is retained indefinitely).
  for (auto& h : held) out.push_back(std::move(h.record));

  records.swap(out);
}

void FaultInjector::Apply(Stream stream, std::vector<ran::TbRecord>& records) {
  ApplyImpl(
      stream, records, [](const ran::TbRecord& r) { return r.slot_time; },
      [](ran::TbRecord& r, sim::TimePoint ts) { r.slot_time = ts; },
      [](ran::TbRecord& r, sim::Rng& rng) {
        // Scramble one field into a *wrong* but consumable value.
        switch (rng.UniformInt(0, 3)) {
          case 0:
            r.used_bytes = static_cast<std::uint32_t>(rng.UniformInt(0, r.tbs_bytes));
            break;
          case 1:
            r.harq_round = static_cast<std::uint8_t>(r.harq_round +
                                                     rng.UniformInt(1, 3));
            break;
          case 2: r.crc_ok = !r.crc_ok; break;
          default:
            r.tbs_bytes = static_cast<std::uint32_t>(rng.UniformInt(0, 4000));
            r.used_bytes = std::min(r.used_bytes, r.tbs_bytes);
            break;
        }
      });
}

void FaultInjector::Apply(Stream stream, std::vector<net::CaptureRecord>& records) {
  ApplyImpl(
      stream, records, [](const net::CaptureRecord& r) { return r.local_ts; },
      [](net::CaptureRecord& r, sim::TimePoint ts) { r.local_ts = ts; },
      [](net::CaptureRecord& r, sim::Rng& rng) {
        switch (rng.UniformInt(0, 2)) {
          case 0:
            r.size_bytes = static_cast<std::uint32_t>(rng.UniformInt(1, 3000));
            break;
          case 1:
            r.kind = net::PacketKind::kGeneric;
            r.clear_header();
            break;
          default:
            // A mangled id breaks the L3 joins for this record only.
            r.packet_id ^= 0x8000'0000'0000'0000ULL;
            break;
        }
      });
}

net::PacketHandler FaultInjector::Wrap(sim::Simulator& sim, net::PacketHandler next) {
  struct WrapState {
    sim::Simulator& sim;
    FaultSpec spec;
    sim::Rng rng;
    FaultStats::PerStream* st;
    net::PacketHandler next;
    std::deque<Held<net::Packet>> held;
  };
  auto state = std::make_shared<WrapState>(WrapState{
      sim, plan_.For(Stream::kPackets),
      sim::Rng{sim::DeriveSeed(seed_, static_cast<std::uint64_t>(Stream::kPackets))},
      &stats_.For(Stream::kPackets), std::move(next), {}});

  return [state](const net::Packet& p) {
    WrapState& s = *state;
    ++s.st->seen;
    const sim::TimePoint now = s.sim.Now();
    const FaultSpec& spec = s.spec;

    auto deliver = [&](const net::Packet& pkt) {
      s.next(pkt);
      for (auto it = s.held.begin(); it != s.held.end();) {
        if (--it->countdown <= 0) {
          const net::Packet released = std::move(it->record);
          it = s.held.erase(it);
          s.next(released);
        } else {
          ++it;
        }
      }
    };

    if (spec.outage_end > spec.outage_begin && now >= spec.outage_begin &&
        now < spec.outage_end) {
      ++s.st->outage_dropped;
      return;
    }
    if (spec.drop > 0.0 && s.rng.Bernoulli(spec.drop)) {
      ++s.st->dropped;
      return;
    }
    if (spec.delay > 0.0 && s.rng.Bernoulli(spec.delay)) {
      ++s.st->delayed;
      const sim::Duration d = s.rng.UniformDuration(spec.delay_min, spec.delay_max);
      net::Packet copy = p;
      s.sim.ScheduleAfter(d, [state, copy = std::move(copy)] { state->next(copy); });
      return;
    }
    if (spec.duplicate > 0.0 && s.rng.Bernoulli(spec.duplicate)) {
      ++s.st->duplicated;
      deliver(p);
    }
    if (spec.reorder > 0.0 && s.rng.Bernoulli(spec.reorder)) {
      ++s.st->reordered;
      s.held.push_back(Held<net::Packet>{
          p, s.rng.UniformInt(1, static_cast<std::int64_t>(std::max<std::size_t>(
                                     1, spec.reorder_depth)))});
      return;
    }
    deliver(p);
  };
}

// ---------------------------------------------------------------------------
// InputDigest — FNV-1a over every field the correlator consumes.
// ---------------------------------------------------------------------------

void InputDigest::Mix(std::uint64_t v) {
  // FNV-1a, one byte at a time (byte-order independent across platforms).
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (i * 8)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

void InputDigest::Mix(const std::vector<ran::TbRecord>& records) {
  Mix(records.size());
  for (const auto& r : records) {
    Mix(r.tb_id);
    Mix(r.chain_id);
    Mix(static_cast<std::uint64_t>(r.slot_time.us()));
    Mix(static_cast<std::uint64_t>(r.grant));
    Mix(r.tbs_bytes);
    Mix(r.used_bytes);
    Mix(r.harq_round);
    Mix(r.crc_ok ? 1u : 0u);
  }
}

void InputDigest::Mix(const std::vector<net::CaptureRecord>& records) {
  Mix(records.size());
  for (const auto& r : records) {
    Mix(r.packet_id);
    Mix(static_cast<std::uint64_t>(r.local_ts.us()));
    Mix(static_cast<std::uint64_t>(r.kind));
    Mix(r.size_bytes);
    Mix(r.flow);
    Mix(r.rtp() != nullptr ? r.rtp()->frame_id + 1 : 0u);
  }
}

}  // namespace athena::fault
