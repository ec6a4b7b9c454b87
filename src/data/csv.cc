#include "data/csv.h"

#include <fstream>
#include <vector>

#include "common/string_util.h"

namespace pafeat {

bool WriteTableCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<std::string> header;
  for (const std::string& name : table.feature_names()) header.push_back(name);
  for (const std::string& name : table.label_names()) {
    header.push_back("label:" + name);
  }
  out << Join(header, ",") << "\n";
  for (int r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_features(); ++c) {
      if (c > 0) out << ",";
      out << table.features().At(r, c);
    }
    for (int c = 0; c < table.num_labels(); ++c) {
      out << "," << table.labels().At(r, c);
    }
    out << "\n";
  }
  return static_cast<bool>(out);
}

std::optional<Table> ReadTableCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;

  std::vector<std::string> header = Split(Trim(line), ',');
  std::vector<std::string> feature_names;
  std::vector<std::string> label_names;
  std::vector<bool> is_label(header.size());
  for (size_t i = 0; i < header.size(); ++i) {
    if (StartsWith(header[i], "label:")) {
      is_label[i] = true;
      label_names.push_back(header[i].substr(6));
    } else {
      feature_names.push_back(header[i]);
    }
  }

  std::vector<std::vector<float>> feature_rows;
  std::vector<std::vector<float>> label_rows;
  while (std::getline(in, line)) {
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::vector<std::string> fields = Split(trimmed, ',');
    if (fields.size() != header.size()) return std::nullopt;
    std::vector<float> feature_row;
    std::vector<float> label_row;
    for (size_t i = 0; i < fields.size(); ++i) {
      float value = 0.0f;
      if (!ParseFloat(fields[i], &value)) return std::nullopt;
      if (is_label[i]) {
        label_row.push_back(value);
      } else {
        feature_row.push_back(value);
      }
    }
    feature_rows.push_back(std::move(feature_row));
    label_rows.push_back(std::move(label_row));
  }
  if (feature_rows.empty()) return std::nullopt;

  Matrix features(static_cast<int>(feature_rows.size()),
                  static_cast<int>(feature_names.size()));
  Matrix labels(static_cast<int>(label_rows.size()),
                static_cast<int>(label_names.size()));
  for (int r = 0; r < features.rows(); ++r) {
    for (int c = 0; c < features.cols(); ++c) {
      features.At(r, c) = feature_rows[r][c];
    }
    for (int c = 0; c < labels.cols(); ++c) {
      labels.At(r, c) = label_rows[r][c];
    }
  }
  return Table(std::move(features), std::move(labels),
               std::move(feature_names), std::move(label_names));
}

}  // namespace pafeat
