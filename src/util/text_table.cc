#include "src/util/text_table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace specbench {

void TextTable::SetHeader(std::vector<std::string> header) { header_ = std::move(header); }

void TextTable::AddRow(std::vector<std::string> row) {
  assert(header_.empty() || row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::Render() const {
  const size_t cols = header_.size();
  std::vector<size_t> widths(cols, 0);
  for (size_t c = 0; c < cols; c++) {
    widths[c] = header_[c].size();
  }
  for (const std::vector<std::string>& row : rows_) {
    for (size_t c = 0; c < row.size() && c < cols; c++) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto is_numeric = [](const std::string& s) {
    if (s.empty()) {
      return false;
    }
    for (char ch : s) {
      if (!(std::isdigit(static_cast<unsigned char>(ch)) || ch == '.' || ch == '-' || ch == '+' ||
            ch == '%')) {
        return false;
      }
    }
    return true;
  };

  auto emit_row = [&](std::ostringstream& out, const std::vector<std::string>& cells,
                      bool right_align_numbers) {
    for (size_t c = 0; c < cols; c++) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      const size_t pad = widths[c] - cell.size();
      if (c > 0) {
        out << " | ";
      }
      if (right_align_numbers && c > 0 && is_numeric(cell)) {
        out << std::string(pad, ' ') << cell;
      } else {
        out << cell << std::string(pad, ' ');
      }
    }
    out << "\n";
  };

  std::ostringstream out;
  emit_row(out, header_, /*right_align_numbers=*/false);
  for (size_t c = 0; c < cols; c++) {
    if (c > 0) {
      out << "-+-";
    }
    out << std::string(widths[c], '-');
  }
  out << "\n";
  for (const std::vector<std::string>& row : rows_) {
    emit_row(out, row, /*right_align_numbers=*/true);
  }
  return out.str();
}

std::string RenderBarChart(const std::string& title, const std::vector<Bar>& bars,
                           const std::string& unit, double scale) {
  std::ostringstream out;
  out << title << "\n";

  double max_total = 0.0;
  size_t max_label = 0;
  for (const Bar& bar : bars) {
    double total = 0.0;
    for (const BarSegment& seg : bar.segments) {
      total += std::max(0.0, seg.value);
    }
    max_total = std::max(max_total, total);
    max_label = std::max(max_label, bar.label.size());
  }
  if (scale <= 0.0) {
    scale = max_total > 0.0 ? 60.0 / max_total : 1.0;
  }

  // Stable glyph assignment per segment label, in order of first appearance.
  static const char kGlyphs[] = "#=@%*o+x~.";
  std::map<std::string, char> glyph_of;
  std::vector<std::string> legend_order;
  for (const Bar& bar : bars) {
    for (const BarSegment& seg : bar.segments) {
      if (glyph_of.find(seg.label) == glyph_of.end()) {
        const size_t index = glyph_of.size();
        glyph_of[seg.label] = kGlyphs[index < sizeof(kGlyphs) - 1 ? index : sizeof(kGlyphs) - 2];
        legend_order.push_back(seg.label);
      }
    }
  }

  for (const Bar& bar : bars) {
    out << "  " << bar.label << std::string(max_label - bar.label.size(), ' ') << " |";
    double total = 0.0;
    for (const BarSegment& seg : bar.segments) {
      if (seg.value <= 0.0) {
        continue;
      }
      total += seg.value;
      const int chars = static_cast<int>(std::lround(seg.value * scale));
      out << std::string(static_cast<size_t>(std::max(0, chars)), glyph_of[seg.label]);
    }
    out << " " << FormatDouble(total, 1) << unit;
    if (bar.error > 0.0) {
      out << " (+/-" << FormatDouble(bar.error, 1) << unit << ")";
    }
    out << "\n";
  }

  if (!legend_order.empty()) {
    out << "  legend:";
    for (const std::string& label : legend_order) {
      out << " [" << glyph_of[label] << "] " << label;
    }
    out << "\n";
  }
  return out.str();
}

namespace {

std::string CsvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    return cell;
  }
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') {
      out += '"';
    }
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

std::string RenderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream out;
  for (size_t c = 0; c < header.size(); c++) {
    if (c > 0) {
      out << ",";
    }
    out << CsvEscape(header[c]);
  }
  out << "\n";
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); c++) {
      if (c > 0) {
        out << ",";
      }
      out << CsvEscape(row[c]);
    }
    out << "\n";
  }
  return out.str();
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string FormatPercent(double value, int decimals) {
  return FormatDouble(value, decimals) + "%";
}

std::string FormatCycles(double value) {
  if (value >= 1000.0) {
    return FormatDouble(value, 0);
  }
  if (value >= 100.0) {
    return FormatDouble(value, 0);
  }
  return FormatDouble(value, value >= 10.0 ? 0 : 1);
}

}  // namespace specbench
