// Aligned ASCII / CSV table rendering for the bench harness.
//
// Every bench binary prints the same rows the paper's tables and figures
// report. Table collects string/number cells, then renders either as aligned
// monospace columns (default, human-readable) or CSV (`--csv`).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ssq::stats {

class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row. Must be called before add_row.
  Table& header(std::vector<std::string> names);

  /// Starts a new row; subsequent cell() calls fill it left to right.
  Table& row();

  Table& cell(std::string value);
  Table& cell(double value, int precision = 3);
  Table& cell(std::uint64_t value);
  Table& cell(int value);

  /// Renders as aligned columns (padded with spaces, `|` separators).
  void render_ascii(std::ostream& os) const;

  /// Renders as RFC-4180-ish CSV (cells containing commas/quotes quoted).
  void render_csv(std::ostream& os) const;

  /// Renders according to `csv`; convenience for bench main()s.
  void render(std::ostream& os, bool csv) const;

  [[nodiscard]] const std::string& title() const noexcept { return title_; }

  /// Raw cell access, used by serialisers (e.g. bench JSON reports).
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Parses bench argv for a `--csv` flag (shared by all bench binaries).
bool want_csv(int argc, char** argv) noexcept;

}  // namespace ssq::stats
