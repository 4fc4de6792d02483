#include "obs/pipeline/columnar.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "sim/check.hpp"

namespace athena::obs::pipeline {
namespace {

constexpr std::uint8_t kNameDictKind = 1;
constexpr std::uint8_t kKeyDictKind = 2;
constexpr std::uint8_t kEventsKind = 3;
constexpr std::uint8_t kFooterKind = 4;

/// Smallest encoding of one event: phase, layer and arg_count bytes plus
/// one-byte name, ts, dur and id varints.
constexpr std::size_t kMinEventBytes = 7;

std::uint64_t LoadLe64(const std::uint8_t* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
  return w;
}

/// Slot of a direct-mapped cache keyed by pointer (Fibonacci hashing, so
/// literals packed a few bytes apart land in different slots).
template <std::size_t kSlots>
std::size_t PointerSlot(const char* p) {
  static_assert(std::has_single_bit(kSlots));
  constexpr int kShift = 64 - std::countr_zero(kSlots);
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p)) *
       0x9e3779b97f4a7c15ULL) >>
      kShift);
}

/// Column order of an events block (ColumnarWriter::columns_).
enum Column : std::size_t {
  kPhaseCol,
  kLayerCol,
  kArgCountCol,
  kNameCol,
  kTsCol,
  kDurCol,
  kIdCol,
  kArgsCol,
};

// --- LEB128 varints, zigzag for signed ---

void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t Zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t Unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void PutSigned(std::vector<std::uint8_t>& out, std::int64_t v) {
  PutVarint(out, Zigzag(v));
}

void PutBytes(std::vector<std::uint8_t>& out, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + len);
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  const std::size_t at = out.size();
  out.resize(at + sizeof v);
  std::memcpy(out.data() + at, &v, sizeof v);
}

std::uint64_t DoubleBits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bounds-checked decode cursor over one block payload.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;

  [[nodiscard]] bool done() const { return p == end; }

  std::uint8_t U8() {
    if (p == end) throw std::runtime_error("ATHC: truncated block payload");
    return *p++;
  }

  std::uint64_t Varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (p == end) throw std::runtime_error("ATHC: truncated varint");
      const std::uint8_t b = *p++;
      if (shift >= 64) throw std::runtime_error("ATHC: varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t Signed() { return Unzigzag(Varint()); }

  std::uint64_t U64() {
    if (end - p < 8) throw std::runtime_error("ATHC: truncated block payload");
    const std::uint64_t v = LoadLe64(p);
    p += 8;
    return v;
  }

  std::string Str() {
    const std::uint64_t len = Varint();
    if (static_cast<std::uint64_t>(end - p) < len) {
      throw std::runtime_error("ATHC: truncated string");
    }
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len;
    return s;
  }
};

// --- little-endian fixed-width stream IO ---

void WriteU32(std::ostream& os, std::uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  os.write(b, 4);
}

void WriteU64(std::ostream& os, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os.write(b, 8);
}

std::uint32_t ReadU32(std::istream& is) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  if (!is) throw std::runtime_error("ATHC: truncated header field");
  return static_cast<std::uint32_t>(b[0]) | static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 | static_cast<std::uint32_t>(b[3]) << 24;
}

std::uint64_t ReadU64(std::istream& is) {
  unsigned char b[8];
  is.read(reinterpret_cast<char*>(b), 8);
  if (!is) throw std::runtime_error("ATHC: truncated header field");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint64_t HashBytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = kMixSeed;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) h = MixWord(h, LoadLe64(p + i));
  std::uint64_t tail = 0;
  for (std::size_t b = 0; i + b < len; ++b) {
    tail |= static_cast<std::uint64_t>(p[i + b]) << (8 * b);
  }
  return MixWord(MixWord(h, tail), len);
}

// --- EventStreamDigest ---

std::uint64_t EventStreamDigest::NameHash(NameId id) {
  if (id < name_hashes_.size() && name_hashes_[id] != 0) return name_hashes_[id];
  const std::string text = TraceNameRegistry::Instance().NameOf(id);
  const std::uint64_t h = HashBytes(text.data(), text.size());
  if (id >= name_hashes_.size()) {
    // Registry ids are dense; an id past the registry is hashed but not
    // cached, so a bogus id cannot size the table.
    const std::size_t known = TraceNameRegistry::Instance().size();
    if (id >= known) return h;
    name_hashes_.resize(known, 0);
  }
  name_hashes_[id] = h;
  return h;
}

std::uint64_t EventStreamDigest::KeyHash(const char* key) {
  KeySlot& slot = key_hashes_[PointerSlot<kKeySlots>(key)];
  if (slot.key != key) slot = {key, HashBytes(key, std::strlen(key))};
  return slot.hash;
}

void EventStreamDigest::Add(const TraceEvent& event) {
  std::uint64_t h = MixWord(h_, NameHash(event.name));
  h = MixWord(h, static_cast<std::uint64_t>(static_cast<std::uint8_t>(event.phase)) |
                     static_cast<std::uint64_t>(event.layer) << 8 |
                     static_cast<std::uint64_t>(event.arg_count) << 16);
  h = MixWord(h, static_cast<std::uint64_t>(event.ts.us()));
  h = MixWord(h, static_cast<std::uint64_t>(event.dur.count()));
  h = MixWord(h, event.id);
  for (std::size_t i = 0; i < event.arg_count; ++i) {
    h = MixWord(h, KeyHash(event.args[i].key));
    h = MixWord(h, DoubleBits(event.args[i].value));
  }
  h_ = h;
}

// --- ColumnarWriter ---

ColumnarWriter::ColumnarWriter(std::ostream& os) : os_(os) {
  os_.write(kColumnarMagic, sizeof kColumnarMagic);
  WriteU32(os_, kColumnarVersion);
}

ColumnarWriter::~ColumnarWriter() { Finish(); }

void ColumnarWriter::Emit(const TraceEvent& event) {
  digest_.Add(event);
  if (FirstSighting(event.name)) new_names_.push_back(event.name);
  // ts and id are deltas vs the previous event in the block, wrapping in
  // unsigned arithmetic; the first ts delta is vs base_ts (its own ts),
  // i.e. zero, and the first id delta is vs 0.
  const auto ts = static_cast<std::uint64_t>(event.ts.us());
  if (block_events_ == 0) {
    block_base_ts_ = event.ts.us();
    prev_ts_ = ts;
    prev_id_ = 0;
  }
  columns_[kPhaseCol].push_back(static_cast<std::uint8_t>(event.phase));
  columns_[kLayerCol].push_back(static_cast<std::uint8_t>(event.layer));
  columns_[kArgCountCol].push_back(event.arg_count);
  PutVarint(columns_[kNameCol], event.name);
  PutSigned(columns_[kTsCol], static_cast<std::int64_t>(ts - prev_ts_));
  PutSigned(columns_[kDurCol], event.dur.count());
  PutSigned(columns_[kIdCol], static_cast<std::int64_t>(event.id - prev_id_));
  prev_ts_ = ts;
  prev_id_ = event.id;
  for (std::size_t i = 0; i < event.arg_count; ++i) {
    PutVarint(columns_[kArgsCol], KeyId(event.args[i].key));
    PutU64(columns_[kArgsCol], DoubleBits(event.args[i].value));
  }
  if (++block_events_ == kBlockEvents) FlushBlock();
}

void ColumnarWriter::EmitBatch(const TraceEvent* events, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) Emit(events[i]);
}

bool ColumnarWriter::FirstSighting(NameId id) {
  if (id >= names_seen_.size()) {
    // Registry ids are dense, so the table tracks the registry's size.
    // An id past the registry is re-declared on every sighting rather
    // than letting a bogus id size the table.
    const std::size_t known = TraceNameRegistry::Instance().size();
    if (id >= known) return true;
    names_seen_.resize(known, 0);
  }
  if (names_seen_[id] != 0) return false;
  names_seen_[id] = 1;
  return true;
}

std::uint32_t ColumnarWriter::KeyId(const char* key) {
  KeySlot& slot = key_cache_[PointerSlot<kKeySlots>(key)];
  if (slot.key == key) return slot.id;
  // Ids are assigned by text, so the same text behind two pointers
  // shares one id and one dictionary entry.
  const auto [it, inserted] =
      key_ids_.try_emplace(key, static_cast<std::uint32_t>(key_ids_.size()));
  if (inserted) new_keys_.emplace_back(it->second, it->first.c_str());
  slot = {key, it->second};
  return it->second;
}

void ColumnarWriter::WriteBlock(std::uint8_t kind,
                                const std::vector<std::uint8_t>& payload) {
  ATHENA_CHECK(payload.size() <= kMaxBlockBytes, "ATHC block exceeds kMaxBlockBytes");
  os_.put(static_cast<char>(kind));
  WriteU32(os_, static_cast<std::uint32_t>(payload.size()));
  WriteU64(os_, HashBytes(payload.data(), payload.size()));
  os_.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  ++blocks_written_;
}

void ColumnarWriter::EmitDictionaries() {
  // File name ids reuse the process NameId — registry ids are dense and
  // small, so varints stay short.
  if (!new_names_.empty()) {
    payload_.clear();
    PutVarint(payload_, new_names_.size());
    for (NameId id : new_names_) {
      const std::string text = TraceNameRegistry::Instance().NameOf(id);
      PutVarint(payload_, id);
      PutVarint(payload_, text.size());
      PutBytes(payload_, text.data(), text.size());
    }
    WriteBlock(kNameDictKind, payload_);
    new_names_.clear();
  }
  if (!new_keys_.empty()) {
    payload_.clear();
    PutVarint(payload_, new_keys_.size());
    for (const auto& [id, text] : new_keys_) {
      const std::size_t len = std::strlen(text);
      PutVarint(payload_, id);
      PutVarint(payload_, len);
      PutBytes(payload_, text, len);
    }
    WriteBlock(kKeyDictKind, payload_);
    new_keys_.clear();
  }
}

void ColumnarWriter::FlushBlock() {
  if (block_events_ == 0) return;
  EmitDictionaries();
  payload_.clear();
  PutVarint(payload_, block_events_);
  PutSigned(payload_, block_base_ts_);
  for (std::vector<std::uint8_t>& column : columns_) {
    payload_.insert(payload_.end(), column.begin(), column.end());
    column.clear();
  }
  WriteBlock(kEventsKind, payload_);
  events_written_ += block_events_;
  block_events_ = 0;
}

void ColumnarWriter::Finish() {
  if (finished_) return;
  finished_ = true;
  FlushBlock();
  payload_.clear();
  PutVarint(payload_, events_written_);
  PutU64(payload_, digest_.value());
  WriteBlock(kFooterKind, payload_);
  os_.flush();
}

// --- ColumnarReader ---

ColumnarReader::ColumnarReader(std::istream& is) : is_(is) {
  char magic[4];
  is_.read(magic, 4);
  if (!is_ || std::memcmp(magic, kColumnarMagic, 4) != 0) {
    throw std::runtime_error("ATHC: bad magic (not a columnar trace)");
  }
  const std::uint32_t version = ReadU32(is_);
  if (version != kColumnarVersion) {
    throw std::runtime_error("ATHC: unsupported version " + std::to_string(version));
  }
}

std::uint8_t ColumnarReader::ReadBlock(std::vector<std::uint8_t>& payload) {
  const int kind_ch = is_.get();
  if (kind_ch == std::istream::traits_type::eof()) return 0;
  const auto kind = static_cast<std::uint8_t>(kind_ch);
  const std::uint32_t bytes = ReadU32(is_);
  if (bytes > kMaxBlockBytes) {
    throw std::runtime_error("ATHC: block length " + std::to_string(bytes) +
                             " exceeds the format maximum");
  }
  const std::uint64_t checksum = ReadU64(is_);
  // Grow with the bytes that actually arrive: a length field inflated
  // within the maximum costs at most one chunk past the stream's end.
  constexpr std::size_t kReadChunk = 64 * 1024;
  payload.clear();
  while (payload.size() < bytes) {
    const std::size_t at = payload.size();
    const std::size_t len = std::min<std::size_t>(bytes - at, kReadChunk);
    payload.resize(at + len);
    is_.read(reinterpret_cast<char*>(payload.data() + at), static_cast<std::streamsize>(len));
    if (!is_) throw std::runtime_error("ATHC: truncated block");
  }
  if (HashBytes(payload.data(), payload.size()) != checksum) {
    throw std::runtime_error("ATHC: block checksum mismatch (corrupt trace)");
  }
  return kind;
}

bool ColumnarReader::NextBlock(std::vector<TraceEvent>& out) {
  out.clear();
  std::vector<std::uint8_t> payload;
  for (;;) {
    const std::uint8_t kind = ReadBlock(payload);
    if (kind == 0) return false;  // clean EOF (footer-less streams still read)
    Cursor c{payload.data(), payload.data() + payload.size()};
    switch (kind) {
      case kNameDictKind: {
        const std::uint64_t count = c.Varint();
        for (std::uint64_t i = 0; i < count; ++i) {
          const auto file_id = static_cast<std::uint32_t>(c.Varint());
          names_[file_id] = TraceNameRegistry::Instance().Intern(c.Str());
        }
        break;
      }
      case kKeyDictKind: {
        const std::uint64_t count = c.Varint();
        for (std::uint64_t i = 0; i < count; ++i) {
          const auto file_id = static_cast<std::uint32_t>(c.Varint());
          key_storage_.push_back(std::make_unique<std::string>(c.Str()));
          keys_[file_id] = key_storage_.back()->c_str();
        }
        break;
      }
      case kEventsKind: {
        const std::uint64_t n = c.Varint();
        const std::int64_t base_ts = c.Signed();
        if (n > ColumnarWriter::kBlockEvents ||
            n > static_cast<std::uint64_t>(c.end - c.p) / kMinEventBytes) {
          throw std::runtime_error("ATHC: events block count " + std::to_string(n) +
                                   " exceeds its payload");
        }
        out.resize(n);
        for (auto& e : out) e.phase = static_cast<TraceEvent::Phase>(c.U8());
        for (auto& e : out) {
          const std::uint8_t layer = c.U8();
          if (layer >= kLayerCount) throw std::runtime_error("ATHC: bad layer");
          e.layer = static_cast<Layer>(layer);
        }
        for (auto& e : out) {
          e.arg_count = c.U8();
          if (e.arg_count > e.args.size()) throw std::runtime_error("ATHC: bad arg count");
        }
        for (auto& e : out) {
          const auto file_id = static_cast<std::uint32_t>(c.Varint());
          const auto it = names_.find(file_id);
          if (it == names_.end()) throw std::runtime_error("ATHC: undefined name id");
          e.name = it->second;
        }
        // Hostile deltas wrap in unsigned arithmetic instead of
        // overflowing a signed accumulator.
        auto ts = static_cast<std::uint64_t>(base_ts);
        for (auto& e : out) {
          ts += static_cast<std::uint64_t>(c.Signed());
          e.ts = sim::kEpoch + sim::Duration{static_cast<std::int64_t>(ts)};
        }
        for (auto& e : out) e.dur = sim::Duration{c.Signed()};
        std::uint64_t id = 0;
        for (auto& e : out) {
          id += static_cast<std::uint64_t>(c.Signed());
          e.id = id;
        }
        for (auto& e : out) {
          for (std::size_t i = 0; i < e.arg_count; ++i) {
            const auto key_id = static_cast<std::uint32_t>(c.Varint());
            const auto it = keys_.find(key_id);
            if (it == keys_.end()) throw std::runtime_error("ATHC: undefined key id");
            e.args[i] = TraceArg{it->second, std::bit_cast<double>(c.U64())};
          }
        }
        if (!c.done()) throw std::runtime_error("ATHC: trailing bytes in events block");
        for (const TraceEvent& e : out) digest_.Add(e);
        events_read_ += n;
        return true;
      }
      case kFooterKind: {
        footer_.event_count = c.Varint();
        footer_.digest = c.U64();
        footer_.present = true;
        return false;
      }
      default:
        throw std::runtime_error("ATHC: unknown block kind " + std::to_string(kind));
    }
  }
}

std::uint64_t ColumnarReader::VerifyFooter() {
  if (!footer_.present) throw std::runtime_error("ATHC: missing footer (truncated file)");
  if (footer_.event_count != events_read_) {
    throw std::runtime_error("ATHC: footer event count mismatch");
  }
  if (footer_.digest != digest_.value()) {
    throw std::runtime_error("ATHC: stream digest mismatch (corrupt trace)");
  }
  return digest_.value();
}

}  // namespace athena::obs::pipeline
