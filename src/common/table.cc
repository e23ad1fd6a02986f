#include "table.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace penelope {

namespace {
const std::string separatorMark = "\x01SEP";
} // namespace

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    assert(!header_.empty());
}

void
TextTable::addRow(std::vector<std::string> row)
{
    assert(row.size() == header_.size());
    rows_.push_back(std::move(row));
}

void
TextTable::addSeparator()
{
    rows_.push_back({separatorMark});
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        if (row.size() == 1 && row[0] == separatorMark)
            continue;
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream out;
    auto hline = [&]() {
        out << '+';
        for (auto w : widths)
            out << std::string(w + 2, '-') << '+';
        out << '\n';
    };
    auto emit = [&](const std::vector<std::string> &cells) {
        out << '|';
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell =
                c < cells.size() ? cells[c] : std::string();
            out << ' ' << cell
                << std::string(widths[c] - cell.size(), ' ') << " |";
        }
        out << '\n';
    };

    hline();
    emit(header_);
    hline();
    for (const auto &row : rows_) {
        if (row.size() == 1 && row[0] == separatorMark)
            hline();
        else
            emit(row);
    }
    hline();
    return out.str();
}

void
TextTable::print(std::ostream &os) const
{
    os << render();
}

std::string
TextTable::pct(double fraction, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals)
       << fraction * 100.0 << '%';
    return os.str();
}

std::string
TextTable::num(double value, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << value;
    return os.str();
}

std::string
TextTable::count(std::uint64_t value)
{
    return std::to_string(value);
}

} // namespace penelope
