// Tests for RFC 4585-style NACK generation and retransmission recovery.
#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "rtp/nack.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace athena::rtp {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

net::Packet MediaPacket(std::uint32_t ssrc, std::uint16_t seq) {
  net::Packet p;
  p.id = seq + 1;
  p.kind = net::PacketKind::kRtpVideo;
  p.size_bytes = 1200;
  p.rtp = net::RtpMeta{.ssrc = ssrc, .seq = seq};
  return p;
}

class NackGeneratorTest : public ::testing::Test {
 protected:
  NackGeneratorTest() : nack_(sim_, {}, ids_) {
    nack_.set_feedback_path([this](const net::Packet& p) { sent_.push_back(p); });
  }

  sim::Simulator sim_;
  net::PacketIdGenerator ids_;
  NackGenerator nack_;
  std::vector<net::Packet> sent_;
};

TEST_F(NackGeneratorTest, InOrderStreamProducesNoNacks) {
  nack_.Start();
  for (std::uint16_t i = 0; i < 50; ++i) {
    sim_.ScheduleAfter(sim::Duration{i * 10'000},
                       [this, i] { nack_.OnMediaPacket(MediaPacket(1, i)); });
  }
  sim_.RunUntil(kEpoch + 1s);
  nack_.Stop();
  EXPECT_TRUE(sent_.empty());
  EXPECT_EQ(nack_.gaps_detected(), 0u);
}

TEST_F(NackGeneratorTest, GapIsNackedAfterHold) {
  nack_.Start();
  sim_.ScheduleAfter(1ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 0)); });
  // seq 1 missing.
  sim_.ScheduleAfter(2ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 2)); });
  sim_.RunUntil(kEpoch + 100ms);
  nack_.Stop();
  ASSERT_GE(sent_.size(), 1u);
  ASSERT_TRUE(sent_[0].nack.has_value());
  EXPECT_EQ(sent_[0].nack->ssrc, 1u);
  EXPECT_EQ(sent_[0].nack->seqs, std::vector<std::uint16_t>{1});
  EXPECT_EQ(nack_.gaps_detected(), 1u);
}

TEST_F(NackGeneratorTest, RecoveryClearsTheMiss) {
  nack_.Start();
  sim_.ScheduleAfter(1ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 0)); });
  sim_.ScheduleAfter(2ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 2)); });
  // The retransmission arrives before the first retry interval expires.
  sim_.ScheduleAfter(40ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 1)); });
  sim_.RunUntil(kEpoch + 2s);
  nack_.Stop();
  EXPECT_EQ(nack_.recovered(), 1u);
  // Only the initial NACK round went out, no endless retries.
  EXPECT_LE(sent_.size(), 1u);
}

TEST_F(NackGeneratorTest, GivesUpAfterMaxRetries) {
  nack_.Start();
  sim_.ScheduleAfter(1ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 0)); });
  sim_.ScheduleAfter(2ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 2)); });
  sim_.RunUntil(kEpoch + 3s);  // nothing ever fills the hole
  nack_.Stop();
  EXPECT_EQ(nack_.abandoned(), 1u);
  EXPECT_EQ(sent_.size(), 4u);  // max_retries rounds
}

TEST_F(NackGeneratorTest, SsrcsAreIndependent) {
  nack_.Start();
  sim_.ScheduleAfter(1ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 0)); });
  sim_.ScheduleAfter(2ms, [this] { nack_.OnMediaPacket(MediaPacket(2, 0)); });
  sim_.ScheduleAfter(3ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 2)); });
  sim_.ScheduleAfter(4ms, [this] { nack_.OnMediaPacket(MediaPacket(2, 1)); });  // in order
  sim_.RunUntil(kEpoch + 100ms);
  nack_.Stop();
  ASSERT_GE(sent_.size(), 1u);
  for (const auto& p : sent_) {
    EXPECT_EQ(p.nack->ssrc, 1u);  // only SSRC 1 has a gap
  }
}

TEST_F(NackGeneratorTest, SequenceWrapHandled) {
  nack_.Start();
  sim_.ScheduleAfter(1ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 65'534)); });
  sim_.ScheduleAfter(2ms, [this] { nack_.OnMediaPacket(MediaPacket(1, 1)); });  // skips 65535, 0
  sim_.RunUntil(kEpoch + 100ms);
  nack_.Stop();
  EXPECT_EQ(nack_.gaps_detected(), 2u);
  ASSERT_GE(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].nack->seqs, (std::vector<std::uint16_t>{0, 65'535}));
}

// ---------- RtxCache ----------

TEST(RtxCacheTest, FindAfterInsert) {
  RtxCache cache{4};
  cache.Insert(MediaPacket(1, 10));
  ASSERT_TRUE(cache.Find(1, 10).has_value());
  EXPECT_EQ(cache.Find(1, 10)->rtp->seq, 10);
  EXPECT_FALSE(cache.Find(1, 11).has_value());
  EXPECT_FALSE(cache.Find(2, 10).has_value());
}

TEST(RtxCacheTest, FifoEviction) {
  RtxCache cache{3};
  for (std::uint16_t i = 0; i < 5; ++i) cache.Insert(MediaPacket(1, i));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Find(1, 0).has_value());  // evicted
  EXPECT_FALSE(cache.Find(1, 1).has_value());  // evicted
  EXPECT_TRUE(cache.Find(1, 4).has_value());
}

TEST(RtxCacheValidationDeathTest, RejectsZeroAndOversizedCapacity) {
  sim::ScopedCheckThrow guard;
  EXPECT_THROW(RtxCache{0}, sim::CheckViolation);
  EXPECT_THROW(RtxCache{RtxCache::kMaxCapacity + 1}, sim::CheckViolation);
  EXPECT_NO_THROW(RtxCache{1});
  EXPECT_NO_THROW(RtxCache{RtxCache::kMaxCapacity});
}

/// The cache's contract as a map + FIFO eviction order: the reference the
/// ring must match insert for insert.
class ReferenceRtxCache {
 public:
  explicit ReferenceRtxCache(std::size_t capacity) : capacity_(capacity) {}

  void Insert(const net::Packet& p) {
    const std::uint64_t key = Key(p.rtp->ssrc, p.rtp->seq);
    order_.push_back(key);
    if (order_.size() > capacity_) {
      cache_.erase(order_.front());
      order_.pop_front();
    }
    cache_[key] = p;
  }

  const net::Packet* Find(std::uint32_t ssrc, std::uint16_t seq) const {
    const auto it = cache_.find(Key(ssrc, seq));
    return it == cache_.end() ? nullptr : &it->second;
  }

 private:
  static std::uint64_t Key(std::uint32_t ssrc, std::uint16_t seq) {
    return (static_cast<std::uint64_t>(ssrc) << 16) | seq;
  }

  std::size_t capacity_;
  std::map<std::uint64_t, net::Packet> cache_;
  std::deque<std::uint64_t> order_;
};

/// Everything a retransmission reuses: the packet minus its transmission
/// identity (id, creation time).
void ExpectSameRtxFields(const net::Packet& got, const net::Packet& want) {
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.size_bytes, want.size_bytes);
  EXPECT_EQ(got.ecn_ce, want.ecn_ce);
  ASSERT_TRUE(got.rtp.has_value());
  EXPECT_EQ(got.rtp->ssrc, want.rtp->ssrc);
  EXPECT_EQ(got.rtp->seq, want.rtp->seq);
  EXPECT_EQ(got.rtp->media_ts, want.rtp->media_ts);
  EXPECT_EQ(got.rtp->marker, want.rtp->marker);
  EXPECT_EQ(got.rtp->layer, want.rtp->layer);
  EXPECT_EQ(got.rtp->frame_id, want.rtp->frame_id);
  EXPECT_EQ(got.rtp->packets_in_frame, want.rtp->packets_in_frame);
  EXPECT_EQ(got.rtp->packet_index_in_frame, want.rtp->packet_index_in_frame);
  EXPECT_FALSE(got.icmp.has_value());
  EXPECT_FALSE(got.feedback.has_value());
  EXPECT_FALSE(got.nack.has_value());
}

TEST(RtxCacheTest, MatchesMapModelAcrossSequenceWrapAndEviction) {
  // Two SSRCs interleaved at random, both starting just below the 16-bit
  // wrap; 40k inserts through a 257-slot window evict continuously.
  constexpr std::size_t kCapacity = 257;
  RtxCache cache{kCapacity};
  ReferenceRtxCache reference{kCapacity};
  sim::Rng rng{20240917};
  const std::uint32_t ssrcs[2] = {0x10, 0x20};
  std::uint16_t next_seq[2] = {65'400, 65'300};
  std::size_t inserts = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int op = 0; op < 40'000; ++op) {
    const int s = rng.Bernoulli(0.7) ? 0 : 1;
    if (rng.Bernoulli(0.75)) {
      net::Packet p = MediaPacket(ssrcs[s], next_seq[s]++);
      p.flow = static_cast<net::FlowId>(s + 1);
      p.kind = s == 0 ? net::PacketKind::kRtpVideo : net::PacketKind::kRtpAudio;
      p.size_bytes = static_cast<std::uint32_t>(rng.UniformInt(60, 1200));
      p.created_at = kEpoch + sim::Duration{op};
      p.rtp->media_ts = static_cast<std::uint32_t>(op * 90);
      p.rtp->marker = rng.Bernoulli(0.3);
      p.rtp->layer = s == 0 ? net::SvcLayer::kBase : net::SvcLayer::kNone;
      p.rtp->frame_id = static_cast<std::uint64_t>(op / 4);
      p.rtp->transport_seq = static_cast<std::uint16_t>(op);
      p.rtp->packets_in_frame = 4;
      p.rtp->packet_index_in_frame = static_cast<std::uint32_t>(op % 4);
      cache.Insert(p);
      reference.Insert(p);
      ASSERT_EQ(cache.size(), std::min(++inserts, kCapacity));
    } else {
      // Probe around the window edge: recent, just evicted, and long gone.
      const auto back = static_cast<std::uint16_t>(rng.UniformInt(1, 2 * kCapacity));
      const auto seq = static_cast<std::uint16_t>(next_seq[s] - back);
      const std::optional<net::Packet> got = cache.Find(ssrcs[s], seq);
      const net::Packet* want = reference.Find(ssrcs[s], seq);
      ASSERT_EQ(got.has_value(), want != nullptr) << "op " << op << " seq " << seq;
      if (want == nullptr) {
        ++misses;
        continue;
      }
      ++hits;
      ExpectSameRtxFields(*got, *want);
      EXPECT_EQ(got->rtp->transport_seq, want->rtp->transport_seq);
    }
  }
  // Both SSRCs wrapped, and the probes saw both outcomes plenty.
  EXPECT_LT(next_seq[0], 65'400);
  EXPECT_LT(next_seq[1], 65'300);
  EXPECT_GT(hits, 1'000u);
  EXPECT_GT(misses, 1'000u);
}

TEST(RtxCacheTest, RetransmissionEqualsTheOriginalButForTransmissionIdentity) {
  sim::Simulator sim;
  net::PacketIdGenerator ids;
  app::VcaSender sender{sim, app::VcaSender::Config{}, std::make_unique<app::GccController>(),
                        ids, sim::Rng{4}};
  std::vector<net::Packet> out;
  sender.set_outbound([&](const net::Packet& p) { out.push_back(p); });
  sender.Start();
  sim.RunUntil(kEpoch + 300ms);
  sender.Stop();

  // NACK the first and last packet of each SSRC.
  std::map<std::uint32_t, std::vector<const net::Packet*>> by_ssrc;
  for (const auto& p : out) by_ssrc[p.rtp->ssrc].push_back(&p);
  ASSERT_EQ(by_ssrc.size(), 2u);
  std::vector<net::Packet> originals;
  for (const auto& [ssrc, packets] : by_ssrc) {
    ASSERT_GE(packets.size(), 2u);
    originals.push_back(*packets.front());
    originals.push_back(*packets.back());
  }
  const std::size_t sent = out.size();
  for (std::size_t i = 0; i < originals.size(); i += 2) {
    net::Packet nack;
    nack.kind = net::PacketKind::kRtcpFeedback;
    nack.nack = net::NackMeta{originals[i].rtp->ssrc,
                              {originals[i].rtp->seq, originals[i + 1].rtp->seq}};
    sender.OnFeedbackPacket(nack);
  }
  ASSERT_EQ(out.size(), sent + originals.size());
  EXPECT_EQ(sender.retransmissions(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    const net::Packet& rtx = out[sent + i];
    const net::Packet& original = originals[i];
    ExpectSameRtxFields(rtx, original);
    EXPECT_GT(rtx.id, out[sent - 1].id);  // a fresh transmission
    EXPECT_EQ(rtx.created_at, sim.Now());
    EXPECT_NE(rtx.rtp->transport_seq, original.rtp->transport_seq);
  }
}

// ---------- end-to-end recovery ----------

TEST(NackEndToEndTest, RanLossesAreRecoveredByRetransmission) {
  // Heavy HARQ dropping: without NACK these packets (and their frames)
  // are gone; with NACK the sender repairs them within ~an RTT.
  auto run = [](bool nack_on) {
    sim::Simulator sim;
    app::SessionConfig config;
    config.seed = 91;
    config.channel.base_bler = 0.6;      // frequent chain drops
    config.channel.rtx_bler_factor = 1.0;
    config.cell.max_harq_rounds = 2;
    config.sender.nack_enabled = nack_on;
    config.receiver.nack_enabled = nack_on;
    app::Session session{sim, config};
    session.Run(20s);
    struct Out {
      double delivery;
      std::uint64_t rtx;
    };
    return Out{session.qoe().VideoDeliveryRatio(), session.sender().retransmissions()};
  };

  const auto without = run(false);
  const auto with = run(true);
  EXPECT_LT(without.delivery, 0.9);  // the RAN genuinely loses frames here
  EXPECT_GT(with.delivery, without.delivery + 0.05);
  EXPECT_GT(with.rtx, 100u);
}

TEST(NackEndToEndTest, CleanNetworkSendsNoNacks) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 92;
  config.channel.base_bler = 0.0;
  app::Session session{sim, config};
  session.Run(10s);
  EXPECT_EQ(session.receiver().nack_generator().nacks_sent(), 0u);
  EXPECT_EQ(session.sender().retransmissions(), 0u);
}

}  // namespace
}  // namespace athena::rtp
