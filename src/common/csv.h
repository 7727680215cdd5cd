#ifndef RPAS_COMMON_CSV_H_
#define RPAS_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace rpas {

/// In-memory CSV table: a header row plus data rows of equal width.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column, or -1 when absent.
  int ColumnIndex(const std::string& name) const;
};

/// Splits one CSV record into fields. Handles RFC 4180 quoting: a field
/// wrapped in double quotes may contain commas, and a doubled quote ("")
/// inside a quoted field decodes to one literal quote. Unquoted fields are
/// trimmed; quoted fields keep their content verbatim. Returns
/// InvalidArgument on an unterminated quote or on trailing characters
/// after a closing quote.
Result<std::vector<std::string>> SplitCsvRecord(const std::string& line);

/// Reads a comma-separated file with a mandatory header row. Accepts both
/// LF and CRLF line endings and RFC 4180 quoted fields (see
/// SplitCsvRecord). Returns IoError when the file cannot be opened and
/// InvalidArgument on ragged rows or malformed quoting.
Result<CsvTable> ReadCsv(const std::string& path);

/// Writes a table, quoting any field that contains a comma, a quote, a
/// newline, or leading/trailing whitespace; fields with commas or quotes
/// round-trip through ReadCsv exactly. (Records stay one per line —
/// ReadCsv rejects embedded newlines, which are quoted here only so the
/// output is never structurally ambiguous.) Returns IoError on failure.
Status WriteCsv(const std::string& path, const CsvTable& table);

/// Convenience: extracts one numeric column by name. NotFound when no
/// column has that name; InvalidArgument naming the column, the 1-based
/// data row and the cell text when a cell is malformed, NaN or ±Inf.
Result<std::vector<double>> CsvNumericColumn(const CsvTable& table,
                                             const std::string& column);

}  // namespace rpas

#endif  // RPAS_COMMON_CSV_H_
