#include "rtp/nack.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace athena::rtp {

namespace {
/// Signed distance a→b on the 16-bit sequence circle.
int SeqDiff(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(b - a));
}
}  // namespace

NackGenerator::NackGenerator(sim::Simulator& sim, Config config, net::PacketIdGenerator& ids)
    : sim_(sim),
      config_(config),
      ids_(ids),
      timer_(sim, config.check_interval, [this] { CheckAndSend(); }) {}

void NackGenerator::Start() { timer_.Start(); }

void NackGenerator::Stop() { timer_.Stop(); }

void NackGenerator::OnMediaPacket(const net::Packet& p) {
  if (!p.rtp) return;
  Stream& stream = streams_[p.rtp->ssrc];
  const std::uint16_t seq = p.rtp->seq;

  if (!stream.started) {
    stream.started = true;
    stream.highest_seq = seq;
    return;
  }

  const int ahead = SeqDiff(stream.highest_seq, seq);
  if (ahead > 0) {
    // Every sequence number skipped over is (for now) missing.
    for (int i = 1; i < ahead; ++i) {
      const auto missing_seq = static_cast<std::uint16_t>(stream.highest_seq + i);
      stream.missing.emplace(
          missing_seq, Missing{sim_.Now(), sim_.Now() + config_.initial_hold, 0});
      ++gaps_detected_;
    }
    stream.highest_seq = seq;
    return;
  }

  // At or behind the high-water mark: a retransmission (or reordering)
  // filling a hole.
  const auto it = stream.missing.find(seq);
  if (it != stream.missing.end()) {
    stream.missing.erase(it);
    ++recovered_;
  }
}

void NackGenerator::CheckAndSend() {
  if (!feedback_path_) return;
  const sim::TimePoint now = sim_.Now();
  for (auto& [ssrc, stream] : streams_) {
    std::vector<std::uint16_t> due;
    for (auto it = stream.missing.begin(); it != stream.missing.end();) {
      Missing& m = it->second;
      if (m.retries >= config_.max_retries) {
        ++abandoned_;
        it = stream.missing.erase(it);
        continue;
      }
      if (now >= m.next_action) {
        due.push_back(it->first);
        ++m.retries;
        m.next_action = now + config_.retry_interval;
      }
      ++it;
    }
    if (due.empty()) continue;
    net::Packet nack;
    nack.id = ids_.Next();
    nack.flow = config_.flow;
    nack.kind = net::PacketKind::kRtcpFeedback;
    nack.size_bytes =
        config_.nack_packet_bytes + static_cast<std::uint32_t>(due.size()) * 2;
    nack.created_at = now;
    nack.nack = net::NackMeta{ssrc, std::move(due)};
    ++nacks_sent_;
    feedback_path_(nack);
  }
}

RtxCache::RtxCache(std::size_t capacity) : capacity_(capacity) {
  ATHENA_CHECK(capacity >= 1 && capacity <= kMaxCapacity,
               "RtxCache capacity must be in [1, 65536]");
}

void RtxCache::Insert(const net::Packet& p) {
  if (!p.rtp) return;
  const Item item{p.flow, p.kind, p.size_bytes, *p.rtp};
  if (items_.size() < capacity_) {
    items_.push_back(item);
  } else {
    items_[next_evict_] = item;
    next_evict_ = (next_evict_ + 1) % capacity_;
  }
}

std::optional<net::Packet> RtxCache::Find(std::uint32_t ssrc, std::uint16_t seq) const {
  // NACKs are rare (a handful per session): a scan beats keeping an index
  // up to date on every insert.
  const auto it = std::find_if(items_.begin(), items_.end(), [&](const Item& item) {
    return item.rtp.seq == seq && item.rtp.ssrc == ssrc;
  });
  if (it == items_.end()) return std::nullopt;
  net::Packet p;
  p.flow = it->flow;
  p.kind = it->kind;
  p.size_bytes = it->size_bytes;
  p.rtp = it->rtp;
  return p;
}

}  // namespace athena::rtp
