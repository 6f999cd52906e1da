#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace dfv {
namespace {

TEST(Table, RendersHeadersAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| bb    |    22 |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Table, AlignmentConfigurable) {
  Table t({"x"});
  t.set_align(0, Align::Right);
  t.add_row({"7"});
  EXPECT_NE(t.str().find("| 7 |"), std::string::npos);
}

TEST(Format, Double) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(Format, Sci) { EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04"); }

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.50 MiB");
}

TEST(Csv, RoundTripSimple) {
  Csv c;
  c.header = {"a", "b"};
  c.rows = {{"1", "2"}, {"3", "4"}};
  const Csv parsed = parse_csv(c.str());
  EXPECT_EQ(parsed.header, c.header);
  EXPECT_EQ(parsed.rows, c.rows);
}

TEST(Csv, QuotingEmbeddedCommasAndQuotes) {
  Csv c;
  c.header = {"text", "n"};
  c.rows = {{"hello, world", "1"}, {"say \"hi\"", "2"}, {"multi\nline", "3"}};
  const Csv parsed = parse_csv(c.str());
  EXPECT_EQ(parsed.rows, c.rows);
}

TEST(Csv, ColumnLookup) {
  Csv c;
  c.header = {"x", "y", "z"};
  EXPECT_EQ(c.col("y"), 1u);
  EXPECT_THROW((void)c.col("missing"), ContractError);
  EXPECT_EQ(c.col("missing", /*optional=*/true), Csv::npos);
}

TEST(Csv, ParseHandlesCrLf) {
  const Csv parsed = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(parsed.rows.size(), 1u);
  EXPECT_EQ(parsed.rows[0][1], "2");
}

TEST(Csv, EmptyCellsPreserved) {
  const Csv parsed = parse_csv("a,b,c\n1,,3\n");
  ASSERT_EQ(parsed.rows.size(), 1u);
  EXPECT_EQ(parsed.rows[0][1], "");
}

TEST(Csv, UnterminatedQuoteRejected) {
  // A file cut inside a quoted field must not parse as if the quote closed.
  EXPECT_THROW((void)parse_csv("a,b\n1,\"2"), ContractError);
  EXPECT_THROW((void)parse_csv("a,b\n1,\"2\n3,4\n"), ContractError);
  EXPECT_THROW((void)parse_csv("\""), ContractError);
  // A closed quote at end of input, and an escaped quote, still parse.
  const Csv ok = parse_csv("a,b\n1,\"2 \"\"x\"\"\"");
  ASSERT_EQ(ok.rows.size(), 1u);
  EXPECT_EQ(ok.rows[0][1], "2 \"x\"");
}

}  // namespace
}  // namespace dfv
