#include "util/csv.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "util/logging.hpp"

namespace quetzal {
namespace util {

namespace {

std::string
trim(const std::string &text)
{
    const auto first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

} // namespace

std::vector<CsvRow>
readCsv(std::istream &in)
{
    std::vector<CsvRow> rows;
    std::string line;
    while (std::getline(in, line)) {
        const std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed.front() == '#')
            continue;
        CsvRow fields;
        std::stringstream splitter(trimmed);
        std::string field;
        while (std::getline(splitter, field, ','))
            fields.push_back(trim(field));
        rows.push_back(std::move(fields));
    }
    return rows;
}

std::vector<CsvRow>
readCsvFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal(msg("cannot open CSV file: ", path));
    return readCsv(in);
}

CsvWriter::CsvWriter(std::ostream &out_) : out(out_) {}

void
CsvWriter::comment(const std::string &text)
{
    out << "# " << text << "\n";
}

void
CsvWriter::row(const CsvRow &fields)
{
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out << ",";
        out << fields[i];
    }
    out << "\n";
}

void
CsvWriter::row(const std::vector<double> &fields)
{
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out << ",";
        out << fields[i];
    }
    out << "\n";
}

namespace {

/**
 * True when `field` opens the way no JSON number does: with
 * whitespace or a '+', which strtod/strtoll skip or accept.
 */
bool
badNumberStart(const std::string &field)
{
    return !field.empty() &&
        (field.front() == '+' || std::isspace(
             static_cast<unsigned char>(field.front())));
}

} // namespace

double
parseDouble(const std::string &field, const std::string &what)
{
    // strtod also reads hexadecimal ("0x32", "0x1p3"), which no
    // field or flag means.
    if (badNumberStart(field) ||
        field.find_first_of("xX") != std::string::npos)
        fatal(msg("malformed number for ", what, ": '", field, "'"));
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0')
        fatal(msg("malformed number for ", what, ": '", field, "'"));
    // ERANGE also flags underflow, which rounds to a usable value.
    if (errno == ERANGE && std::abs(value) == HUGE_VAL)
        fatal(msg("out-of-range number for ", what, ": '", field, "'"));
    // strtod also reads "nan" and "inf"; no field or flag means them.
    if (!std::isfinite(value))
        fatal(msg("malformed number for ", what, ": '", field, "'"));
    return value;
}

template <typename Int>
Int
parseInt(const std::string &field, const std::string &what)
{
    using Limits = std::numeric_limits<Int>;
    if (badNumberStart(field))
        fatal(msg("malformed integer for ", what, ": '", field, "'"));
    const char *text = field.c_str();
    char *end = nullptr;
    errno = 0;
    bool inRange = false;
    Int value{};
    if constexpr (std::is_signed_v<Int>) {
        const long long parsed = std::strtoll(text, &end, 10);
        inRange = errno != ERANGE && parsed >= Limits::min() &&
            parsed <= Limits::max();
        value = static_cast<Int>(parsed);
    } else {
        // strtoull negates "-1" into a huge value instead of failing.
        if (*text == '-')
            fatal(msg("negative value for ", what, ": '", field,
                      "' (expected a non-negative integer)"));
        const unsigned long long parsed = std::strtoull(text, &end, 10);
        inRange = errno != ERANGE && parsed <= Limits::max();
        value = static_cast<Int>(parsed);
    }
    if (end == text || *end != '\0')
        fatal(msg("malformed integer for ", what, ": '", field, "'"));
    if (!inRange)
        fatal(msg("out-of-range integer for ", what, ": '", field,
                  "' (limits ", +Limits::min(), "..", +Limits::max(),
                  ")"));
    return value;
}

template int parseInt<int>(const std::string &, const std::string &);
template long parseInt<long>(const std::string &, const std::string &);
template long long parseInt<long long>(const std::string &,
                                       const std::string &);
template unsigned parseInt<unsigned>(const std::string &,
                                     const std::string &);
template unsigned long parseInt<unsigned long>(const std::string &,
                                               const std::string &);
template unsigned long long
parseInt<unsigned long long>(const std::string &, const std::string &);

} // namespace util
} // namespace quetzal
