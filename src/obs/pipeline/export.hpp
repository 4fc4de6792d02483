// Flat-memory trace export: chunked Perfetto emission. Replays an ATHC
// columnar stream block-by-block into Chrome trace-event JSON, so working
// memory is one block (~512 KiB) whatever the trace length — nothing
// materializes the full trace. Events are sorted within each block;
// Perfetto's JSON importer orders the full set on load. (The sharded
// Prometheus exposition lives with the one exposition writer,
// obs/prom_text.hpp.)
#pragma once

#include <cstdint>
#include <iosfwd>

namespace athena::obs::pipeline {

/// Streams the ATHC columnar trace on `in` to Chrome trace-event JSON on
/// `os`, block-at-a-time. Verifies block checksums and the footer stream
/// digest (throws std::runtime_error on corruption). Returns the number
/// of events emitted.
std::uint64_t WriteChunkedPerfetto(std::istream& in, std::ostream& os);

}  // namespace athena::obs::pipeline
