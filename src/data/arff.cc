#include "data/arff.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace pafeat {
namespace {

std::string ToLower(std::string_view text) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower;
}

// Splits "@attribute name type" respecting single quotes around the name.
bool ParseAttributeLine(const std::string& line, std::string* name,
                        std::string* type) {
  std::string rest = Trim(line.substr(std::string("@attribute").size()));
  if (rest.empty()) return false;
  if (rest[0] == '\'') {
    const size_t close = rest.find('\'', 1);
    if (close == std::string::npos) return false;
    *name = rest.substr(1, close - 1);
    *type = Trim(rest.substr(close + 1));
  } else {
    const size_t space = rest.find_first_of(" \t");
    if (space == std::string::npos) return false;
    *name = rest.substr(0, space);
    *type = Trim(rest.substr(space + 1));
  }
  return !name->empty() && !type->empty();
}

// Parses one nominal list "{a, b, c}".
std::optional<std::vector<std::string>> ParseNominal(const std::string& type) {
  if (type.empty() || type.front() != '{' || type.back() != '}') {
    return std::nullopt;
  }
  std::vector<std::string> values;
  for (const std::string& field :
       Split(type.substr(1, type.size() - 2), ',')) {
    values.push_back(Trim(field));
  }
  if (values.empty()) return std::nullopt;
  return values;
}

// Converts one raw cell to a float given the attribute's nominal list.
bool CellToFloat(const std::string& raw,
                 const std::vector<std::string>& nominal, float* out) {
  const std::string value = Trim(raw);
  if (value == "?") {  // missing value -> 0 (column mean after standardize)
    *out = 0.0f;
    return true;
  }
  if (nominal.empty()) return ParseFloat(value, out);
  const auto it = std::find(nominal.begin(), nominal.end(), value);
  if (it == nominal.end()) return false;
  *out = static_cast<float>(it - nominal.begin());
  return true;
}

}  // namespace

std::optional<ArffDocument> ParseArff(const std::string& text) {
  ArffDocument document;
  std::istringstream stream(text);
  std::string line;
  bool in_data = false;
  std::vector<std::vector<float>> rows;

  while (std::getline(stream, line)) {
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '%') continue;

    if (!in_data) {
      const std::string lower = ToLower(trimmed);
      if (StartsWith(lower, "@relation")) {
        document.relation = Trim(trimmed.substr(9));
        continue;
      }
      if (StartsWith(lower, "@attribute")) {
        std::string name;
        std::string type;
        if (!ParseAttributeLine(trimmed, &name, &type)) {
          PF_LOG(Warning) << "ARFF: bad attribute line '" << trimmed << "'";
          return std::nullopt;
        }
        document.attribute_names.push_back(name);
        const std::string type_lower = ToLower(type);
        if (type_lower == "numeric" || type_lower == "real" ||
            type_lower == "integer") {
          document.nominal_values.emplace_back();
        } else if (auto nominal = ParseNominal(type); nominal.has_value()) {
          document.nominal_values.push_back(*nominal);
        } else {
          PF_LOG(Warning) << "ARFF: unsupported attribute type '" << type
                          << "'";
          return std::nullopt;
        }
        continue;
      }
      if (StartsWith(lower, "@data")) {
        if (document.attribute_names.empty()) return std::nullopt;
        in_data = true;
        continue;
      }
      PF_LOG(Warning) << "ARFF: unexpected header line '" << trimmed << "'";
      return std::nullopt;
    }

    // Data section.
    const int num_attributes =
        static_cast<int>(document.attribute_names.size());
    std::vector<float> row(num_attributes, 0.0f);
    if (trimmed.front() == '{') {
      // Sparse row: {index value, index value, ...}; unlisted cells are 0.
      if (trimmed.back() != '}') return std::nullopt;
      const std::string body = trimmed.substr(1, trimmed.size() - 2);
      if (!Trim(body).empty()) {
        for (const std::string& entry : Split(body, ',')) {
          const std::string pair = Trim(entry);
          const size_t space = pair.find_first_of(" \t");
          if (space == std::string::npos) return std::nullopt;
          int index = 0;
          if (!ParseInt(pair.substr(0, space), &index) || index < 0 ||
              index >= num_attributes) {
            return std::nullopt;
          }
          float value = 0.0f;
          if (!CellToFloat(pair.substr(space + 1),
                           document.nominal_values[index], &value)) {
            return std::nullopt;
          }
          row[index] = value;
        }
      }
    } else {
      const std::vector<std::string> cells = Split(trimmed, ',');
      if (static_cast<int>(cells.size()) != num_attributes) {
        PF_LOG(Warning) << "ARFF: row with " << cells.size()
                        << " cells, expected " << num_attributes;
        return std::nullopt;
      }
      for (int i = 0; i < num_attributes; ++i) {
        if (!CellToFloat(cells[i], document.nominal_values[i], &row[i])) {
          return std::nullopt;
        }
      }
    }
    rows.push_back(std::move(row));
  }

  if (!in_data || rows.empty()) return std::nullopt;
  document.values = Matrix(static_cast<int>(rows.size()),
                           static_cast<int>(document.attribute_names.size()));
  for (int r = 0; r < document.values.rows(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(), document.values.Row(r));
  }
  return document;
}

std::optional<ArffDocument> ReadArffFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseArff(buffer.str());
}

std::optional<Table> ArffToTable(const ArffDocument& document,
                                 const std::vector<std::string>& label_names) {
  const int num_attributes =
      static_cast<int>(document.attribute_names.size());
  std::vector<bool> is_label(num_attributes, false);
  for (const std::string& label : label_names) {
    const auto it = std::find(document.attribute_names.begin(),
                              document.attribute_names.end(), label);
    if (it == document.attribute_names.end()) {
      PF_LOG(Warning) << "ARFF: label '" << label << "' not found";
      return std::nullopt;
    }
    is_label[it - document.attribute_names.begin()] = true;
  }

  std::vector<int> feature_columns;
  std::vector<int> label_columns;
  std::vector<std::string> feature_names;
  std::vector<std::string> ordered_label_names;
  for (int i = 0; i < num_attributes; ++i) {
    if (is_label[i]) {
      label_columns.push_back(i);
      ordered_label_names.push_back(document.attribute_names[i]);
    } else {
      feature_columns.push_back(i);
      feature_names.push_back(document.attribute_names[i]);
    }
  }
  if (feature_columns.empty() || label_columns.empty()) return std::nullopt;

  return Table(document.values.SelectCols(feature_columns),
               document.values.SelectCols(label_columns),
               std::move(feature_names), std::move(ordered_label_names));
}

std::optional<Table> ArffToTableLastLabels(const ArffDocument& document,
                                           int num_labels) {
  const int num_attributes =
      static_cast<int>(document.attribute_names.size());
  if (num_labels <= 0 || num_labels >= num_attributes) return std::nullopt;
  std::vector<std::string> label_names(
      document.attribute_names.end() - num_labels,
      document.attribute_names.end());
  return ArffToTable(document, label_names);
}

}  // namespace pafeat
