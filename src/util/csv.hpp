/**
 * @file
 * Minimal CSV reading/writing, used for power-trace and event-trace
 * persistence and for benchmark result dumps.
 *
 * Supports the subset of CSV the project emits: comma-separated
 * fields, optional '#' comment lines, no quoting/escaping (fields
 * must not contain commas or newlines).
 */

#ifndef QUETZAL_UTIL_CSV_HPP
#define QUETZAL_UTIL_CSV_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace quetzal {
namespace util {

/** One parsed CSV row. */
using CsvRow = std::vector<std::string>;

/**
 * Parse CSV from a stream. Blank lines and lines starting with '#'
 * are skipped. Whitespace around fields is trimmed.
 */
std::vector<CsvRow> readCsv(std::istream &in);

/** Parse CSV from a file; calls fatal() if the file cannot be read. */
std::vector<CsvRow> readCsvFile(const std::string &path);

/** Writer that streams rows to an ostream. */
class CsvWriter
{
  public:
    /** Write to the given stream; the stream must outlive the writer. */
    explicit CsvWriter(std::ostream &out);

    /** Write a comment line ("# ..."). */
    void comment(const std::string &text);

    /** Write one row of string fields. */
    void row(const CsvRow &fields);

    /** Write one row of numeric fields. */
    void row(const std::vector<double> &fields);

  private:
    std::ostream &out;
};

/**
 * Parse `field` as a finite double. Calls fatal(), naming `what` (a
 * CLI flag, or "CSV field"), when the text is empty, carries trailing
 * junk, overflows a double, spells a NaN or an infinity, or takes a
 * form no JSON number has: leading whitespace, a leading '+', or
 * hexadecimal.
 */
double parseDouble(const std::string &field,
                   const std::string &what = "CSV field");

/**
 * Parse `field` as a base-10 integer of type Int. Calls fatal(),
 * naming `what` (a CLI flag, or "CSV field"), when the text is empty,
 * carries trailing junk, starts with whitespace or a '+', falls
 * outside Int's range, or is negative and Int is unsigned.
 * Instantiated for the standard signed and unsigned int, long and
 * long long types.
 */
template <typename Int = long long>
Int parseInt(const std::string &field,
             const std::string &what = "CSV field");

} // namespace util
} // namespace quetzal

#endif // QUETZAL_UTIL_CSV_HPP
