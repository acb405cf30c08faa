#include "util/table.hpp"

#include <gtest/gtest.h>

namespace topkmon {
namespace {

Table sample_table() {
  Table t("Sample");
  t.header({"n", "messages", "ratio"});
  t.add_row({"16", "120", "3.5"});
  t.add_row_values({32.0, 240.5, 7.25}, 2);
  return t;
}

TEST(Table, AsciiContainsAllCells) {
  const auto s = sample_table().to_ascii();
  EXPECT_NE(s.find("Sample"), std::string::npos);
  EXPECT_NE(s.find("messages"), std::string::npos);
  EXPECT_NE(s.find("240.5"), std::string::npos);
  EXPECT_NE(s.find("7.25"), std::string::npos);
}

TEST(Table, MarkdownShape) {
  const auto s = sample_table().to_markdown();
  EXPECT_NE(s.find("### Sample"), std::string::npos);
  EXPECT_NE(s.find("| n | messages | ratio |"), std::string::npos);
  EXPECT_NE(s.find("| --- | --- | --- |"), std::string::npos);
}

TEST(Table, CsvRoundTripShape) {
  const auto s = sample_table().to_csv();
  EXPECT_EQ(s, "n,messages,ratio\n16,120,3.5\n32,240.5,7.25\n");
}

TEST(Table, RowColumnCounts) {
  const auto t = sample_table();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
}

TEST(Table, JsonEscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01" "b")), "a\\u0001b");

  Table t("say \"hi\"");
  t.header({"k\\v"});
  t.add_row({"x\ty"});
  const auto s = t.to_json();
  EXPECT_NE(s.find("\"title\": \"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(s.find("{\"k\\\\v\": \"x\\ty\"}"), std::string::npos);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5, 3), "1.5");
  EXPECT_EQ(format_double(2.0, 2), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
  EXPECT_EQ(format_double(0.1259, 2), "0.13");
}

TEST(FormatCount, ThousandsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

}  // namespace
}  // namespace topkmon
