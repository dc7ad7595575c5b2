#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/campaign/atomic_file.hh"

namespace swcc
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty()) {
        throw std::invalid_argument("a table needs at least one column");
    }
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size()) {
        throw std::invalid_argument(
            "row has " + std::to_string(cells.size()) +
            " cells, table has " + std::to_string(headers_.size()) +
            " columns");
    }
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
        widths[i] = headers_[i].size();
    }
    for (const auto &row : rows_) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            widths[i] = std::max(widths[i], row[i].size());
        }
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            if (i + 1 < row.size()) {
                os << std::string(widths[i] - row[i].size() + 2, ' ');
            }
        }
        os << '\n';
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < widths.size(); ++i) {
        total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
    }
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_) {
        print_row(row);
    }
}

void
TextTable::printCsv(std::ostream &os) const
{
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            if (i + 1 < row.size()) {
                os << ',';
            }
        }
        os << '\n';
    };
    print_row(headers_);
    for (const auto &row : rows_) {
        print_row(row);
    }
}

std::string
formatNumber(double value, int precision)
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(precision);
    oss << value;
    std::string text = oss.str();
    if (text.find('.') != std::string::npos) {
        while (!text.empty() && text.back() == '0') {
            text.pop_back();
        }
        if (!text.empty() && text.back() == '.') {
            text.pop_back();
        }
    }
    if (text == "-0") {
        text = "0";
    }
    return text;
}

std::string
exportCsv(const TextTable &table, const std::string &name,
          const std::string &directory)
{
    std::filesystem::create_directories(directory);
    const std::string path = directory + "/" + name + ".csv";
    // Atomic: an interrupted bench must not leave a truncated CSV
    // that parses as a complete (but short) result set.
    campaign::atomicWriteFile(
        path, [&](std::ostream &os) { table.printCsv(os); });
    return path;
}

AsciiChart::AsciiChart(unsigned width, unsigned height)
    : width_(std::max(16u, width)), height_(std::max(4u, height))
{
}

void
AsciiChart::addSeries(const Series &series)
{
    series_.push_back(series);
}

void
AsciiChart::setAxisTitles(std::string x_title, std::string y_title)
{
    xTitle_ = std::move(x_title);
    yTitle_ = std::move(y_title);
}

void
AsciiChart::setYRange(double lo, double hi)
{
    if (hi <= lo) {
        throw std::invalid_argument("y range must be non-empty");
    }
    hasYRange_ = true;
    yLo_ = lo;
    yHi_ = hi;
}

void
AsciiChart::print(std::ostream &os) const
{
    double x_lo = 0.0, x_hi = 1.0, y_lo = 0.0, y_hi = 1.0;
    bool first = true;
    for (const Series &series : series_) {
        for (const SeriesPoint &p : series.points) {
            if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
                continue; // Non-finite points plot as gaps.
            }
            if (first) {
                x_lo = x_hi = p.x;
                y_hi = p.y;
                first = false;
            } else {
                x_lo = std::min(x_lo, p.x);
                x_hi = std::max(x_hi, p.x);
                y_hi = std::max(y_hi, p.y);
            }
        }
    }
    if (first) {
        os << "(empty chart)\n";
        return;
    }
    if (hasYRange_) {
        y_lo = yLo_;
        y_hi = yHi_;
    }
    if (x_hi == x_lo) {
        x_hi = x_lo + 1.0;
    }
    if (y_hi == y_lo) {
        y_hi = y_lo + 1.0;
    }

    std::vector<std::string> grid(
        height_, std::string(width_, ' '));

    auto marker_for = [this](std::size_t index) {
        const std::string &label = series_[index].label;
        char candidate = label.empty()
            ? static_cast<char>('a' + index) : label.front();
        // Fall back to letters when two labels share an initial.
        for (std::size_t j = 0; j < index; ++j) {
            if (!series_[j].label.empty() &&
                series_[j].label.front() == candidate) {
                return static_cast<char>('1' + index);
            }
        }
        return candidate;
    };

    for (std::size_t s = 0; s < series_.size(); ++s) {
        const char marker = marker_for(s);
        for (const SeriesPoint &p : series_[s].points) {
            if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
                continue;
            }
            const double fx = (p.x - x_lo) / (x_hi - x_lo);
            const double fy = (p.y - y_lo) / (y_hi - y_lo);
            if (fy < 0.0 || fy > 1.0) {
                continue;
            }
            const auto col = static_cast<std::size_t>(
                std::lround(fx * (width_ - 1)));
            const auto row = static_cast<std::size_t>(
                std::lround((1.0 - fy) * (height_ - 1)));
            grid[row][col] = marker;
        }
    }

    if (!yTitle_.empty()) {
        os << yTitle_ << '\n';
    }
    for (unsigned r = 0; r < height_; ++r) {
        const double y_val = y_hi -
            (y_hi - y_lo) * static_cast<double>(r) /
            static_cast<double>(height_ - 1);
        std::string label = formatNumber(y_val, 1);
        if (label.size() < 8) {
            label = std::string(8 - label.size(), ' ') + label;
        }
        os << label << " |" << grid[r] << '\n';
    }
    os << std::string(8, ' ') << " +" << std::string(width_, '-') << '\n';
    os << std::string(8, ' ') << "  " << formatNumber(x_lo, 2)
       << std::string(width_ > 24 ? width_ - 16 : 4, ' ')
       << formatNumber(x_hi, 2) << '\n';
    if (!xTitle_.empty()) {
        os << std::string(10 + width_ / 2 - xTitle_.size() / 2, ' ')
           << xTitle_ << '\n';
    }
    os << "  legend:";
    for (std::size_t s = 0; s < series_.size(); ++s) {
        os << "  " << marker_for(s) << " = " << series_[s].label;
    }
    os << '\n';
}

} // namespace swcc
