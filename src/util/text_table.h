// Plain-text rendering of tables and bar charts.
//
// Every experiment in the paper is either a table (Tables 1-10) or a bar
// figure (Figures 2, 3, 5). The report renderers use these helpers so the
// terminal output can be compared side by side with the paper.
#ifndef SPECTREBENCH_SRC_UTIL_TEXT_TABLE_H_
#define SPECTREBENCH_SRC_UTIL_TEXT_TABLE_H_

#include <string>
#include <vector>

namespace specbench {

// Column-aligned ASCII table builder.
class TextTable {
 public:
  // Sets the header row. Column count is fixed from this call onward.
  void SetHeader(std::vector<std::string> header);

  // Appends a data row; must match the header's column count (checked).
  void AddRow(std::vector<std::string> row);

  // Inserts a horizontal separator line before the next row.
  void AddSeparator();

  // Renders with padded columns, e.g.:
  //   CPU             | syscall | sysret
  //   ----------------+---------+-------
  //   Broadwell       |      49 |     40
  std::string Render() const;

  size_t row_count() const { return rows_.size(); }

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

// One labelled, stacked horizontal bar: used to render the paper's stacked
// bar figures in ASCII. Each segment has a label (shared across bars via the
// legend) and a magnitude in percent.
struct BarSegment {
  std::string label;
  double value = 0.0;
};

struct Bar {
  std::string label;
  std::vector<BarSegment> segments;
  // Optional +/- half-width of a 95% confidence interval on the bar total.
  double error = 0.0;
};

// Renders a horizontal stacked bar chart. `unit` is appended to the numeric
// total (typically "%"). `scale` is characters per unit value; if zero, a
// scale is chosen so the longest bar is ~60 chars.
std::string RenderBarChart(const std::string& title, const std::vector<Bar>& bars,
                           const std::string& unit = "%", double scale = 0.0);

// Renders rows as CSV (comma-escaped with quotes where needed).
std::string RenderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows);

// Numeric formatting helpers used throughout the report renderers.
std::string FormatDouble(double value, int decimals);
std::string FormatPercent(double value, int decimals = 1);
std::string FormatCycles(double value);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UTIL_TEXT_TABLE_H_
