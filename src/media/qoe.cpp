#include "media/qoe.hpp"

#include <algorithm>
#include <cmath>

namespace athena::media {

namespace {

/// First entry of the id-ordered `sent` whose frame_id is not below `id`.
template <typename Registry>
auto LowerBound(Registry& sent, std::uint64_t id) {
  return std::lower_bound(sent.begin(), sent.end(), id,
                          [](const auto& s, std::uint64_t v) { return s.frame_id < v; });
}

template <typename Info>
void Register(std::vector<Info>& sent, const Info& info) {
  if (sent.empty() || sent.back().frame_id < info.frame_id) {
    sent.push_back(info);
    return;
  }
  const auto it = LowerBound(sent, info.frame_id);
  if (it != sent.end() && it->frame_id == info.frame_id) {
    *it = info;
  } else {
    sent.insert(it, info);
  }
}

template <typename Info>
const Info* Lookup(const std::vector<Info>& sent, std::uint64_t frame_id) {
  const auto it = LowerBound(sent, frame_id);
  return it != sent.end() && it->frame_id == frame_id ? &*it : nullptr;
}

}  // namespace

QoeCollector::QoeCollector() : QoeCollector(Config{}) {}

void QoeCollector::OnUnitSent(const EncodedUnit& unit) {
  const SentInfo info{
      .frame_id = unit.unit.frame_id,
      .captured_at = unit.captured_at,
      .ssim = unit.ssim,
  };
  if (unit.unit.is_audio) {
    Register(sent_audio_, info);
    ++audio_sent_;
  } else {
    Register(sent_video_, info);
    ++frames_sent_;
  }
}

void QoeCollector::OnPacketReceived(const net::Packet& p, sim::TimePoint now) {
  if (!p.is_media()) return;
  received_bytes_.Add(now, static_cast<double>(p.size_bytes));
}

void QoeCollector::OnFrameRendered(const RenderedFrame& f) {
  const SentInfo* sent = Lookup(f.is_audio ? sent_audio_ : sent_video_, f.frame_id);
  if (sent != nullptr) {
    const double m2e_ms = sim::ToMs(f.rendered_at - sent->captured_at);
    mouth_to_ear_ms_.Add(m2e_ms);
    if (f.is_audio) audio_m2e_ms_.Add(m2e_ms);
  }
  jb_hold_ms_.Add(sim::ToMs(f.rendered_at - f.completed_at));
  if (f.is_audio) {
    ++audio_rendered_;
    return;
  }

  ++video_rendered_;
  if (f.late) ++late_frames_;
  rendered_frames_.Add(f.rendered_at, 1.0);
  if (sent != nullptr) ssim_.Add(sent->ssim);

  // Frame-level jitter: deviation of the inter-completion gap from the
  // inter-capture gap of the same two frames.
  if (sent != nullptr) {
    if (have_prev_video_) {
      const double inter_completion = sim::ToMs(f.completed_at - prev_completed_);
      const double inter_capture = sim::ToMs(sent->captured_at - prev_captured_);
      frame_jitter_ms_.Add(std::abs(inter_completion - inter_capture));
    }
    have_prev_video_ = true;
    prev_completed_ = f.completed_at;
    prev_captured_ = sent->captured_at;
  }
}

stats::Cdf QoeCollector::ReceiveBitrateKbps() const {
  stats::Cdf out;
  for (const auto& w : received_bytes_.WindowedRatePerSecond(config_.rate_window)) {
    out.Add(w.mean * 8.0 / 1e3);  // bytes/s → Kbps
  }
  return out;
}

stats::Cdf QoeCollector::FrameRateFps() const {
  stats::Cdf out;
  for (const auto& w : rendered_frames_.WindowedRatePerSecond(config_.rate_window)) {
    out.Add(w.mean);
  }
  return out;
}

double QoeCollector::AudioLossFraction() const {
  if (audio_sent_ == 0) return 0.0;
  const auto lost = audio_sent_ > audio_rendered_ ? audio_sent_ - audio_rendered_ : 0;
  return static_cast<double>(lost) / static_cast<double>(audio_sent_);
}

double QoeCollector::AudioMos() const {
  if (audio_m2e_ms_.empty()) return 1.0;
  return EModel{}.Mos(audio_m2e_ms_.Median(), AudioLossFraction());
}

double QoeCollector::VideoDeliveryRatio() const {
  if (frames_sent_ == 0) return 0.0;
  return static_cast<double>(video_rendered_) / static_cast<double>(frames_sent_);
}

}  // namespace athena::media
