// ATHC — the compact binary columnar trace format.
//
// Chrome-trace JSON is ~20× the size of the events it encodes and must be
// fully materialized to sort; neither survives fleet scale. ATHC stores
// the same TraceEvent stream column-wise in self-describing, individually
// checksummed blocks, so a reader can stream, skip, or parallelize over
// blocks without loading the file.
//
// Layout (all integers little-endian; varints are LEB128, signed values
// zigzag-encoded):
//
//   file   := magic "ATHC" | u32 version | blocks...
//   block  := u8 kind | u32 payload_bytes | u64 HashBytes(payload) | payload
//   kinds  := 1 name-dict  — varint count, then (varint id, varint len, bytes)
//             2 key-dict   — same shape; arg keys interned by the writer
//             3 events     — columnar event batch (below)
//             4 footer     — varint event_count | u64 stream digest
//
// An events block holds `n` events as column runs, in order:
//   varint n | i64zz base_ts_us
//   phase[n] u8 | layer[n] u8 | arg_count[n] u8
//   name_id[n]  varint        (dictionary id, dense and small)
//   ts[n]       i64zz varint  delta vs previous event (base_ts for [0])
//   dur[n]      i64zz varint
//   id[n]       i64zz varint  delta vs previous event's id
//   args        per event: arg_count × (varint key_id, u64 double bits)
//
// Dictionaries are incremental: before an events block, the writer emits
// dict blocks covering any names/keys first seen in that batch, so a
// stream is decodable strictly front-to-back. The footer's stream digest
// is the canonical event digest (EventStreamDigest) of everything
// written; readers recompute it, making write→read→digest-match a
// one-call integrity check.
//
// Version 2 hashes 64-bit words (MixWord) for both the block checksum
// and the stream digest; version 1 hashed bytes. The column and
// dictionary encodings are unchanged, and readers reject version 1.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace athena::obs::pipeline {

inline constexpr char kColumnarMagic[4] = {'A', 'T', 'H', 'C'};
inline constexpr std::uint32_t kColumnarVersion = 2;

/// Largest block payload a writer produces and a reader accepts. A full
/// events block is at most 4096 × 116 B ≈ 464 KiB and dictionaries are
/// far smaller, so a larger length field is corruption; readers reject
/// it before allocating anything.
inline constexpr std::uint32_t kMaxBlockBytes = 16u << 20;

inline constexpr std::uint64_t kMixSeed = 0xcbf29ce484222325ULL;

/// Folds one 64-bit word into the hash state: xor, multiply by the FNV
/// prime, xorshift. Every step is a bijection of the state for a fixed
/// word and of the word for a fixed state, so changing any single word of
/// a sequence always changes the final state.
constexpr std::uint64_t MixWord(std::uint64_t h, std::uint64_t word) {
  h ^= word;
  h *= 0x100000001b3ULL;
  return h ^ (h >> 29);
}

/// MixWord over a byte string: little-endian 8-byte words, the zero-
/// padded tail, then the length. The block checksum, and the text hash
/// behind the stream digest's cached name and key hashes.
std::uint64_t HashBytes(const void* data, std::size_t len);

/// Order-sensitive digest over the canonical content of an event stream.
/// Per event it mixes the words H(name text) (not the process-local
/// NameId), phase | layer << 8 | arg_count << 16, ts, dur and id, then
/// per arg H(key text) and the raw value bits. Identical streams digest
/// identically across processes, which is what makes the digest a
/// round-trip oracle. Text hashes are computed once: per NameId, and per
/// key pointer (TraceArg keys outlive every sink that sees them).
class EventStreamDigest {
 public:
  void Add(const TraceEvent& event);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  struct KeySlot {
    const char* key = nullptr;
    std::uint64_t hash = 0;
  };

  std::uint64_t NameHash(NameId id);
  std::uint64_t KeyHash(const char* key);

  static constexpr std::size_t kKeySlots = 64;

  std::uint64_t h_ = kMixSeed;
  std::vector<std::uint64_t> name_hashes_;       ///< by NameId; 0 = not hashed yet
  std::array<KeySlot, kKeySlots> key_hashes_{};  ///< direct-mapped by key pointer
};

/// Streaming writer. Feed it events (any phase mix, any order — order is
/// preserved); call Finish() exactly once to emit the footer. Also
/// usable as a TraceSink, so it can hang off a Collector directly.
/// Each event is encoded into the open block's columns as it arrives,
/// while it is still in cache; no TraceEvent is buffered.
class ColumnarWriter final : public TraceSink {
 public:
  /// Events per block. The open block's columns hold ≤ 116 B/event
  /// (~23 B on a session stream): the writer's memory is O(block), never
  /// O(trace).
  static constexpr std::size_t kBlockEvents = 4096;

  explicit ColumnarWriter(std::ostream& os);
  ~ColumnarWriter() override;

  ColumnarWriter(const ColumnarWriter&) = delete;
  ColumnarWriter& operator=(const ColumnarWriter&) = delete;

  void Emit(const TraceEvent& event) override;
  void EmitBatch(const TraceEvent* events, std::size_t count) override;

  /// Flushes the open block and writes the footer. Idempotent; the
  /// destructor calls it as a backstop.
  void Finish();

  [[nodiscard]] std::uint64_t events_written() const { return events_written_; }
  [[nodiscard]] std::uint64_t blocks_written() const { return blocks_written_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_.value(); }

 private:
  struct KeySlot {
    const char* key = nullptr;
    std::uint32_t id = 0;
  };
  static constexpr std::size_t kKeySlots = 64;

  void FlushBlock();
  void WriteBlock(std::uint8_t kind, const std::vector<std::uint8_t>& payload);
  /// Emits dict blocks for the names/keys first seen in the open block.
  void EmitDictionaries();
  /// True the first time `id` is seen (it then needs a dict entry).
  bool FirstSighting(NameId id);
  /// The file id of `key`'s text, assigned in first-seen order.
  std::uint32_t KeyId(const char* key);

  std::ostream& os_;
  /// The open events block, one byte column per field in file order.
  std::array<std::vector<std::uint8_t>, 8> columns_;
  std::size_t block_events_ = 0;
  std::int64_t block_base_ts_ = 0;
  std::uint64_t prev_ts_ = 0;  ///< delta bases within the open block
  std::uint64_t prev_id_ = 0;
  std::vector<NameId> new_names_;  ///< first seen in the open block
  std::vector<std::pair<std::uint32_t, const char*>> new_keys_;
  std::vector<std::uint8_t> payload_;  // reused scratch
  std::vector<std::uint8_t> names_seen_;  ///< by NameId
  /// Ids by key text; the pointer-tagged cache in front of it skips the
  /// string hash for the literal keys every event repeats.
  std::unordered_map<std::string, std::uint32_t> key_ids_;
  std::array<KeySlot, kKeySlots> key_cache_{};
  EventStreamDigest digest_;
  std::uint64_t events_written_ = 0;
  std::uint64_t blocks_written_ = 0;
  bool finished_ = false;
};

/// Streaming reader. Decodes block-by-block; memory stays O(block +
/// dictionaries). Decoded events carry NameIds re-interned into this
/// process's TraceNameRegistry and arg keys pointing into reader-owned
/// stable storage, so they behave like locally emitted events.
class ColumnarReader {
 public:
  explicit ColumnarReader(std::istream& is);

  /// Decodes the next events block into `out` (replacing its contents).
  /// Returns false at the footer (or clean end of stream). Throws
  /// std::runtime_error on malformed input or a checksum mismatch; every
  /// length field is bounds-checked before anything is allocated.
  bool NextBlock(std::vector<TraceEvent>& out);

  /// Streams the whole file through `fn(const TraceEvent&)`, verifies
  /// the footer digest, and returns it. Throws on corruption or digest
  /// mismatch.
  template <typename Fn>
  std::uint64_t ForEach(Fn&& fn) {
    std::vector<TraceEvent> block;
    while (NextBlock(block)) {
      for (const TraceEvent& e : block) fn(e);
    }
    return VerifyFooter();
  }

  /// After NextBlock returned false: checks the recomputed digest and
  /// event count against the footer. Returns the digest; throws on
  /// mismatch or missing footer.
  std::uint64_t VerifyFooter();

  [[nodiscard]] std::uint64_t events_read() const { return events_read_; }

 private:
  struct Footer {
    std::uint64_t event_count = 0;
    std::uint64_t digest = 0;
    bool present = false;
  };

  /// Reads one block header+payload (checksum-verified). Returns the
  /// kind, or 0 at end of stream.
  std::uint8_t ReadBlock(std::vector<std::uint8_t>& payload);

  std::istream& is_;
  std::unordered_map<std::uint32_t, NameId> names_;         // file id → local id
  std::unordered_map<std::uint32_t, const char*> keys_;     // file id → stable text
  std::vector<std::unique_ptr<std::string>> key_storage_;   // owns key text
  EventStreamDigest digest_;
  Footer footer_;
  std::uint64_t events_read_ = 0;
};

}  // namespace athena::obs::pipeline
