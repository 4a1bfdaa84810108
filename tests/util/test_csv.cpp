/**
 * @file
 * Tests for the CSV reader/writer and the checked number parsers.
 */

#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "util/csv.hpp"

namespace quetzal {
namespace util {
namespace {

TEST(Csv, ParsesRowsSkippingCommentsAndBlanks)
{
    std::istringstream in(
        "# header comment\n"
        "1, 2.5 ,three\n"
        "\n"
        "   \n"
        "4,5,six\n");
    const auto rows = readCsv(in);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], (CsvRow{"1", "2.5", "three"}));
    EXPECT_EQ(rows[1], (CsvRow{"4", "5", "six"}));
}

TEST(Csv, TrimsWhitespace)
{
    std::istringstream in("  a ,\tb\t, c \r\n");
    const auto rows = readCsv(in);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (CsvRow{"a", "b", "c"}));
}

TEST(Csv, WriterRoundTrip)
{
    std::ostringstream out;
    CsvWriter writer(out);
    writer.comment("test");
    writer.row(CsvRow{"x", "y"});
    writer.row(std::vector<double>{1.5, -2.0});

    std::istringstream in(out.str());
    const auto rows = readCsv(in);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], (CsvRow{"x", "y"}));
    EXPECT_DOUBLE_EQ(parseDouble(rows[1][0]), 1.5);
    EXPECT_DOUBLE_EQ(parseDouble(rows[1][1]), -2.0);
}

TEST(Csv, ParseNumbers)
{
    EXPECT_DOUBLE_EQ(parseDouble("3.25e-2"), 0.0325);
    EXPECT_DOUBLE_EQ(parseDouble("1.7976931348623157e308"),
                     1.7976931348623157e308);
    EXPECT_EQ(parseInt("-42"), -42);
    EXPECT_EQ(parseInt<int>("2147483647", "--cells"), 2147483647);
    EXPECT_EQ(parseInt<unsigned long long>("18446744073709551615",
                                           "--seed"),
              18446744073709551615ull);
    EXPECT_EQ(parseInt<unsigned>("0", "--jobs"), 0u);
}

TEST(Csv, ParseIntAcceptsEveryTargetsFullRange)
{
    // Each instantiation accepts exactly its own limits, both ends.
    EXPECT_EQ(parseInt<int>("-2147483648"),
              std::numeric_limits<int>::min());
    EXPECT_EQ(parseInt<long>("-9223372036854775808"),
              std::numeric_limits<long>::min());
    EXPECT_EQ(parseInt<long>("9223372036854775807"),
              std::numeric_limits<long>::max());
    EXPECT_EQ(parseInt<long long>("-9223372036854775808"),
              std::numeric_limits<long long>::min());
    EXPECT_EQ(parseInt<unsigned>("4294967295"),
              std::numeric_limits<unsigned>::max());
    EXPECT_EQ(parseInt<unsigned long>("18446744073709551615"),
              std::numeric_limits<unsigned long>::max());
    EXPECT_EQ(parseInt<unsigned long long>("0"), 0u);
}

TEST(Csv, ParseDoubleAcceptsUnderflow)
{
    // strtod flags underflow with ERANGE too, but the rounded value
    // is usable, so only overflow to HUGE_VAL is fatal.
    const double tiny = parseDouble("1e-400", "--floor");
    EXPECT_GE(tiny, 0.0);
    EXPECT_LT(tiny, 1e-300);
    EXPECT_LE(parseDouble("-1e-400", "--floor"), 0.0);
}

TEST(CsvDeathTest, MalformedNumberIsFatal)
{
    EXPECT_EXIT(parseDouble("12x"), ::testing::ExitedWithCode(1),
                "malformed");
    EXPECT_EXIT(parseInt("4.5"), ::testing::ExitedWithCode(1),
                "malformed integer for CSV field: '4.5'");
    EXPECT_EXIT(parseDouble("", "--threshold"),
                ::testing::ExitedWithCode(1),
                "malformed number for --threshold");
}

TEST(CsvDeathTest, TrailingJunkIsFatal)
{
    EXPECT_EXIT(parseInt<std::uint64_t>("12x", "--seed"),
                ::testing::ExitedWithCode(1),
                "malformed integer for --seed: '12x'");
    EXPECT_EXIT(parseInt<std::size_t>("abc", "--events"),
                ::testing::ExitedWithCode(1),
                "malformed integer for --events: 'abc'");
    EXPECT_EXIT(parseDouble("1.5%", "--threshold"),
                ::testing::ExitedWithCode(1),
                "malformed number for --threshold: '1.5%'");
}

TEST(CsvDeathTest, OverflowIsFatal)
{
    EXPECT_EXIT(parseInt<std::size_t>("99999999999999999999", "--events"),
                ::testing::ExitedWithCode(1),
                "out-of-range integer for --events");
    EXPECT_EXIT(parseInt("99999999999999999999"),
                ::testing::ExitedWithCode(1),
                "out-of-range integer for CSV field");
    EXPECT_EXIT(parseInt("-99999999999999999999"),
                ::testing::ExitedWithCode(1), "out-of-range");
    // In range for the parse, out of range for the narrower target.
    EXPECT_EXIT(parseInt<int>("2147483648", "--cells"),
                ::testing::ExitedWithCode(1),
                "out-of-range integer for --cells");
    EXPECT_EXIT(parseInt<unsigned>("4294967296", "--jobs"),
                ::testing::ExitedWithCode(1),
                "out-of-range integer for --jobs");
    EXPECT_EXIT(parseDouble("1e999", "--peak"),
                ::testing::ExitedWithCode(1),
                "out-of-range number for --peak");
}

TEST(CsvDeathTest, NonFiniteNumberIsFatal)
{
    // strtod reads these spellings; a field or flag never means them.
    EXPECT_EXIT(parseDouble("nan", "--telemetry-cost-s"),
                ::testing::ExitedWithCode(1),
                "malformed number for --telemetry-cost-s: 'nan'");
    EXPECT_EXIT(parseDouble("-NaN"), ::testing::ExitedWithCode(1),
                "malformed number for CSV field: '-NaN'");
    EXPECT_EXIT(parseDouble("inf", "--peak"),
                ::testing::ExitedWithCode(1),
                "malformed number for --peak: 'inf'");
    EXPECT_EXIT(parseDouble("-infinity"), ::testing::ExitedWithCode(1),
                "malformed number for CSV field");
}

TEST(CsvDeathTest, BelowASignedTargetIsFatal)
{
    // Below the target's minimum, whether only the narrower target
    // (int) or the parse itself (long long) underflows.
    EXPECT_EXIT(parseInt<int>("-2147483649", "--cells"),
                ::testing::ExitedWithCode(1),
                "out-of-range integer for --cells");
    EXPECT_EXIT(parseInt<long long>("-9223372036854775809", "--offset"),
                ::testing::ExitedWithCode(1),
                "out-of-range integer for --offset");
}

TEST(CsvDeathTest, NegativeForAnUnsignedTargetIsFatal)
{
    EXPECT_EXIT(parseInt<unsigned>("-1", "--jobs"),
                ::testing::ExitedWithCode(1),
                "negative value for --jobs: '-1'");
    EXPECT_EXIT(parseInt<std::uint64_t>("-5", "--seed"),
                ::testing::ExitedWithCode(1),
                "negative value for --seed");
}

TEST(CsvDeathTest, FormsNoJsonNumberTakesAreFatal)
{
    // strtod/strtoll skip leading whitespace, take a leading '+' and
    // (strtod) hexadecimal; the same knobs in a scenario file take
    // only JSON numbers, so the flags must not accept more.
    EXPECT_EXIT(parseDouble("0x32", "--threshold"),
                ::testing::ExitedWithCode(1),
                "malformed number for --threshold: '0x32'");
    EXPECT_EXIT(parseDouble("-0X1p3"), ::testing::ExitedWithCode(1),
                "malformed number for CSV field: '-0X1p3'");
    EXPECT_EXIT(parseDouble("+2.5", "--peak"),
                ::testing::ExitedWithCode(1),
                "malformed number for --peak: '\\+2.5'");
    EXPECT_EXIT(parseDouble(" 2.5", "--peak"),
                ::testing::ExitedWithCode(1),
                "malformed number for --peak: ' 2.5'");
    EXPECT_EXIT(parseInt<std::uint64_t>("+7", "--seed"),
                ::testing::ExitedWithCode(1),
                "malformed integer for --seed: '\\+7'");
    EXPECT_EXIT(parseInt<std::uint64_t>(" 7", "--seed"),
                ::testing::ExitedWithCode(1),
                "malformed integer for --seed: ' 7'");
    EXPECT_EXIT(parseInt<std::uint64_t>(" -5", "--seed"),
                ::testing::ExitedWithCode(1),
                "malformed integer for --seed: ' -5'");
    EXPECT_EXIT(parseInt<int>("\t3", "--cells"),
                ::testing::ExitedWithCode(1),
                "malformed integer for --cells");
    EXPECT_EXIT(parseInt("+1"), ::testing::ExitedWithCode(1),
                "malformed integer for CSV field");
}

TEST(Csv, TrimmedCsvFieldsStillParse)
{
    // readCsv trims every field, so padded CSV input is unaffected.
    std::istringstream in(" 1.5 ,  -2 \n");
    const auto rows = readCsv(in);
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), 2u);
    EXPECT_EQ(parseDouble(rows[0][0]), 1.5);
    EXPECT_EQ(parseInt(rows[0][1]), -2);
    // Exponents and negative zero are JSON numbers and stay valid.
    EXPECT_EQ(parseDouble("2.5E-3"), 2.5e-3);
    EXPECT_EQ(parseDouble("-0"), 0.0);
}

} // namespace
} // namespace util
} // namespace quetzal
