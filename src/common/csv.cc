#include "common/csv.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace rpas {

int CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Result<std::vector<std::string>> SplitCsvRecord(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;       // inside "..." right now
  bool was_quoted = false;   // this field used quoting (skip trimming)
  size_t i = 0;
  const size_t n = line.size();
  while (i < n) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < n && line[i + 1] == '"') {
          field.push_back('"');  // "" escape inside a quoted field
          i += 2;
          continue;
        }
        quoted = false;
        ++i;
        // Only a comma (or end of line) may follow a closing quote.
        if (i < n && line[i] != ',') {
          return Status::InvalidArgument(StrFormat(
              "unexpected character '%c' after closing quote at column %zu",
              line[i], i + 1));
        }
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && StrTrim(field).empty()) {
      quoted = true;
      was_quoted = true;
      field.clear();  // drop any whitespace before the opening quote
      ++i;
      continue;
    }
    if (c == ',') {
      fields.push_back(was_quoted ? field : std::string(StrTrim(field)));
      field.clear();
      was_quoted = false;
      ++i;
      continue;
    }
    field.push_back(c);
    ++i;
  }
  if (quoted) {
    return Status::InvalidArgument("unterminated quote in CSV record");
  }
  fields.push_back(was_quoted ? field : std::string(StrTrim(field)));
  return fields;
}

Result<CsvTable> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  CsvTable table;
  std::string line;
  bool first = true;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (StrTrim(line).empty()) {
      continue;
    }
    Result<std::vector<std::string>> parsed = SplitCsvRecord(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", path.c_str(), line_number,
                    parsed.status().message().c_str()));
    }
    std::vector<std::string> fields = std::move(*parsed);
    if (first) {
      table.header = std::move(fields);
      first = false;
      continue;
    }
    if (fields.size() != table.header.size()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: row has %zu fields, header has %zu", path.c_str(),
                    line_number, fields.size(), table.header.size()));
    }
    table.rows.push_back(std::move(fields));
  }
  if (first) {
    return Status::InvalidArgument("'" + path + "' is empty (no header row)");
  }
  return table;
}

Status WriteCsv(const std::string& path, const CsvTable& table) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  auto write_field = [&out](const std::string& field) {
    const bool needs_quoting =
        field.find_first_of(",\"\r\n") != std::string::npos ||
        (!field.empty() && (StrTrim(field).size() != field.size()));
    if (!needs_quoting) {
      out << field;
      return;
    }
    out << '"';
    for (char c : field) {
      if (c == '"') {
        out << '"';
      }
      out << c;
    }
    out << '"';
  };
  auto write_row = [&write_field, &out](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) {
        out << ',';
      }
      write_field(row[i]);
    }
    out << '\n';
  };
  write_row(table.header);
  for (const auto& row : table.rows) {
    if (row.size() != table.header.size()) {
      return Status::InvalidArgument("ragged row in CsvTable");
    }
    write_row(row);
  }
  out.flush();
  if (!out) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::OK();
}

Result<std::vector<double>> CsvNumericColumn(const CsvTable& table,
                                             const std::string& column) {
  const int idx = table.ColumnIndex(column);
  if (idx < 0) {
    return Status::NotFound("no column named '" + column + "'");
  }
  std::vector<double> values;
  values.reserve(table.rows.size());
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::string& cell = table.rows[r][idx];
    Result<double> v = ParseDouble(cell);
    if (!v.ok() || !std::isfinite(*v)) {
      return Status::InvalidArgument(StrFormat(
          "column '%s', data row %zu: '%s' is not a finite number",
          column.c_str(), r + 1, cell.c_str()));
    }
    values.push_back(*v);
  }
  return values;
}

}  // namespace rpas
