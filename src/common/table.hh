/**
 * @file
 * ASCII table rendering used by the benchmark harnesses to
 * print paper-style tables with "paper" vs "measured" columns.
 */

#ifndef PENELOPE_COMMON_TABLE_HH
#define PENELOPE_COMMON_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace penelope {

/**
 * Simple left/right aligned ASCII table.  Cells are strings; helpers
 * format doubles as percentages or fixed-precision values.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a row; its size must match the header. */
    void addRow(std::vector<std::string> row);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Render the table. */
    std::string render() const;

    /** Render to a stream. */
    void print(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

    /** Format helpers. */
    static std::string pct(double fraction, int decimals = 2);
    static std::string num(double value, int decimals = 3);
    static std::string count(std::uint64_t value);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace penelope

#endif // PENELOPE_COMMON_TABLE_HH
