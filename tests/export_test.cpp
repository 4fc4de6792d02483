#include <chrono>
#include <sstream>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "core/export.hpp"

namespace athena::core {
namespace {

using namespace std::chrono_literals;

std::size_t CountLines(const std::string& s) {
  std::size_t lines = 0;
  for (const char c : s) lines += c == '\n' ? 1 : 0;
  return lines;
}

class ExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim_ = new sim::Simulator;
    app::SessionConfig config;
    config.seed = 5;
    config.channel.base_bler = 0.1;
    session_ = new app::Session{*sim_, config};
    session_->Run(5s);
    data_ = new CrossLayerDataset{Correlator::Correlate(session_->BuildCorrelatorInput())};
  }

  static void TearDownTestSuite() {
    delete data_;
    delete session_;
    delete sim_;
    data_ = nullptr;
    session_ = nullptr;
    sim_ = nullptr;
  }

  static sim::Simulator* sim_;
  static app::Session* session_;
  static CrossLayerDataset* data_;
};

sim::Simulator* ExportTest::sim_ = nullptr;
app::Session* ExportTest::session_ = nullptr;
CrossLayerDataset* ExportTest::data_ = nullptr;

TEST_F(ExportTest, PacketsCsvHasHeaderPlusRowPerPacket) {
  std::ostringstream os;
  CsvExport::Packets(os, *data_);
  EXPECT_EQ(CountLines(os.str()), data_->packets.size() + 1);
  EXPECT_EQ(os.str().rfind("packet_id,kind,", 0), 0u);  // header first
}

TEST_F(ExportTest, PacketsCsvColumnsAreConsistent) {
  std::ostringstream os;
  CsvExport::Packets(os, *data_);
  std::istringstream in{os.str()};
  std::string line;
  std::getline(in, line);
  const auto commas = std::count(line.begin(), line.end(), ',');
  while (std::getline(in, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), commas) << line;
  }
}

TEST_F(ExportTest, FramesCsvMatchesFrameCount) {
  std::ostringstream os;
  CsvExport::Frames(os, *data_);
  EXPECT_EQ(CountLines(os.str()), data_->frames.size() + 1);
}

TEST_F(ExportTest, TelemetryCsvMatchesRecordCount) {
  std::ostringstream os;
  CsvExport::Telemetry(os, session_->ran_uplink()->telemetry());
  EXPECT_EQ(CountLines(os.str()), session_->ran_uplink()->telemetry().size() + 1);
  EXPECT_NE(os.str().find("proactive"), std::string::npos);
}

TEST_F(ExportTest, CaptureCsvMatchesCaptureCount) {
  std::ostringstream os;
  CsvExport::Capture(os, session_->sender_capture().log());
  EXPECT_EQ(CountLines(os.str()), session_->sender_capture().count() + 1);
}

TEST_F(ExportTest, TbChainListUsesSemicolons) {
  // Multi-chain packets must not break the CSV column count.
  std::ostringstream os;
  CsvExport::Packets(os, *data_);
  bool found_multi = false;
  std::istringstream in{os.str()};
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.find(';') != std::string::npos) {
      found_multi = true;
      break;
    }
  }
  EXPECT_TRUE(found_multi) << "expected at least one packet spanning multiple TB chains";
}

TEST(ExportEmptyTest, EmptyDatasetYieldsHeadersOnly) {
  CrossLayerDataset empty;
  std::ostringstream packets;
  CsvExport::Packets(packets, empty);
  EXPECT_EQ(CountLines(packets.str()), 1u);
  std::ostringstream frames;
  CsvExport::Frames(frames, empty);
  EXPECT_EQ(CountLines(frames.str()), 1u);
  std::ostringstream telemetry;
  CsvExport::Telemetry(telemetry, {});
  EXPECT_EQ(CountLines(telemetry.str()), 1u);
}

}  // namespace
}  // namespace athena::core
