// QoE metric collection: exactly the four panels of Fig. 7 (receive
// bitrate, frame-level jitter, frame rate, SSIM) plus mouth-to-ear delay
// and stall accounting.
//
// The sender registers every encoded unit (the paper's QR-annotated source
// video is the equivalent ground truth); the receiver feeds arriving
// packets and rendered frames. All metrics are computed receiver-side from
// those three event streams.
#pragma once

#include <cstdint>
#include <vector>

#include "media/emodel.hpp"
#include "media/encoder.hpp"
#include "media/jitter_buffer.hpp"
#include "stats/cdf.hpp"
#include "stats/timeseries.hpp"

namespace athena::media {

class QoeCollector {
 public:
  struct Config {
    sim::Duration rate_window{std::chrono::seconds{1}};
    std::uint32_t video_media_clock_hz = 90'000;
  };

  QoeCollector();  // defaults (defined out of line: nested-Config quirk)
  explicit QoeCollector(Config config) : config_(config) {}

  /// Sender-side registry: called for every encoded frame/sample.
  void OnUnitSent(const EncodedUnit& unit);

  /// Receiver-side: every arriving media packet (bitrate accounting).
  void OnPacketReceived(const net::Packet& p, sim::TimePoint now);

  /// Receiver-side: every rendered frame/sample.
  void OnFrameRendered(const RenderedFrame& f);

  // ---- Fig. 7 metrics ----

  /// (a) receive media bitrate per window, Kbps.
  [[nodiscard]] stats::Cdf ReceiveBitrateKbps() const;

  /// (b) frame-level jitter: |inter-completion − inter-media| per video
  /// frame, milliseconds.
  [[nodiscard]] const stats::Cdf& FrameJitterMs() const { return frame_jitter_ms_; }

  /// (c) rendered video frame rate per window, fps.
  [[nodiscard]] stats::Cdf FrameRateFps() const;

  /// (d) SSIM of rendered video frames (encode-side quality of the frames
  /// that actually reached the screen).
  [[nodiscard]] const stats::Cdf& Ssim() const { return ssim_; }

  // ---- additional user-centric metrics ----

  /// Mouth-to-ear (capture→render) delay per rendered unit, ms.
  [[nodiscard]] const stats::Cdf& MouthToEarMs() const { return mouth_to_ear_ms_; }

  /// Jitter-buffer hold (complete-at-receiver → rendered) per unit, ms —
  /// the last segment of the fleet delay decomposition.
  [[nodiscard]] const stats::Cdf& JitterHoldMs() const { return jb_hold_ms_; }

  /// Audio-only mouth-to-ear delay, ms.
  [[nodiscard]] const stats::Cdf& AudioMouthToEarMs() const { return audio_m2e_ms_; }

  /// Fraction of sent audio samples never rendered.
  [[nodiscard]] double AudioLossFraction() const;

  /// E-model (ITU-T G.107) audio MOS from the measured median
  /// mouth-to-ear delay and sample loss — "audio samples whose quality we
  /// also measure from the application side" (§1).
  [[nodiscard]] double AudioMos() const;

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t video_frames_rendered() const { return video_rendered_; }
  [[nodiscard]] std::uint64_t late_frames() const { return late_frames_; }

  /// Fraction of sent video frames that were rendered.
  [[nodiscard]] double VideoDeliveryRatio() const;

 private:
  Config config_;

  struct SentInfo {
    std::uint64_t frame_id = 0;
    sim::TimePoint captured_at;
    double ssim = 1.0;
  };
  /// Sent-unit registry, one per kind (audio and video ids are separate
  /// spaces), each ordered by frame_id. Encoders hand out rising ids, so
  /// registration is an append; a re-sent id overwrites its entry.
  std::vector<SentInfo> sent_audio_;
  std::vector<SentInfo> sent_video_;

  stats::TimeSeries received_bytes_;   // per media packet
  stats::TimeSeries rendered_frames_;  // 1.0 per rendered video frame
  stats::Cdf frame_jitter_ms_;
  stats::Cdf ssim_;
  stats::Cdf mouth_to_ear_ms_;
  stats::Cdf jb_hold_ms_;
  stats::Cdf audio_m2e_ms_;
  std::uint64_t audio_sent_ = 0;
  std::uint64_t audio_rendered_ = 0;

  bool have_prev_video_ = false;
  sim::TimePoint prev_completed_;
  sim::TimePoint prev_captured_;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t video_rendered_ = 0;
  std::uint64_t late_frames_ = 0;
};

}  // namespace athena::media
