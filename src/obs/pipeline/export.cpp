#include "obs/pipeline/export.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "obs/pipeline/columnar.hpp"
#include "obs/trace_json.hpp"

namespace athena::obs::pipeline {

std::uint64_t WriteChunkedPerfetto(std::istream& in, std::ostream& os) {
  ColumnarReader reader{in};
  jsonio::NameCache names;

  // Track metadata must precede events, and which layers appear isn't
  // known until the stream ends — emit every track; Perfetto ignores
  // empty ones.
  bool all_layers[kLayerCount];
  for (bool& used : all_layers) used = true;
  jsonio::WriteTraceHeader(os, all_layers);

  std::vector<TraceEvent> block;
  std::vector<const TraceEvent*> sorted;
  std::uint64_t emitted = 0;
  while (reader.NextBlock(block)) {
    // Sort within the block only: flat memory. Cross-block disorder is
    // bounded by block size and tolerated by the JSON importer.
    sorted.clear();
    sorted.reserve(block.size());
    for (const TraceEvent& e : block) sorted.push_back(&e);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->ts < b->ts;
                     });
    for (const TraceEvent* e : sorted) {
      os << ",\n";
      jsonio::WriteEventJson(os, *e, names.Resolve(e->name));
      ++emitted;
    }
  }
  reader.VerifyFooter();
  os << "\n]}\n";
  return emitted;
}

}  // namespace athena::obs::pipeline
