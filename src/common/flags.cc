#include "common/flags.h"

#include <iostream>
#include <sstream>

#include "common/string_util.h"

namespace pafeat {

void FlagSet::AddInt(const std::string& name, int* target,
                     const std::string& help) {
  flags_[name] = {Type::kInt, target, help, std::to_string(*target)};
}

void FlagSet::AddDouble(const std::string& name, double* target,
                        const std::string& help) {
  flags_[name] = {Type::kDouble, target, help, FormatDouble(*target, 4)};
}

void FlagSet::AddBool(const std::string& name, bool* target,
                      const std::string& help) {
  flags_[name] = {Type::kBool, target, help, *target ? "true" : "false"};
}

void FlagSet::AddString(const std::string& name, std::string* target,
                        const std::string& help) {
  flags_[name] = {Type::kString, target, help, *target};
}

bool FlagSet::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    std::cerr << "unknown flag --" << name << "\n";
    return false;
  }
  Flag& flag = it->second;
  switch (flag.type) {
    case Type::kInt: {
      int parsed = 0;
      if (!ParseInt(value, &parsed)) {
        std::cerr << "flag --" << name << ": cannot parse int from '" << value
                  << "'\n";
        return false;
      }
      *static_cast<int*>(flag.target) = parsed;
      return true;
    }
    case Type::kDouble: {
      double parsed = 0.0;
      if (!ParseDouble(value, &parsed)) {
        std::cerr << "flag --" << name << ": cannot parse double from '"
                  << value << "'\n";
        return false;
      }
      *static_cast<double*>(flag.target) = parsed;
      return true;
    }
    case Type::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
      } else {
        std::cerr << "flag --" << name << ": cannot parse bool from '" << value
                  << "'\n";
        return false;
      }
      return true;
    }
    case Type::kString:
      *static_cast<std::string*>(flag.target) = value;
      return true;
  }
  return false;
}

bool FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::cerr << "unexpected positional argument '" << arg << "'\n"
                << Usage();
      return false;
    }
    arg = arg.substr(2);
    if (arg == "help") {
      std::cerr << Usage();
      return false;
    }
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      if (!SetValue(arg.substr(0, eq), arg.substr(eq + 1))) return false;
      continue;
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      std::cerr << "unknown flag --" << arg << "\n";
      return false;
    }
    if (it->second.type == Type::kBool &&
        (i + 1 >= argc || StartsWith(argv[i + 1], "--"))) {
      *static_cast<bool*>(it->second.target) = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "flag --" << arg << " is missing a value\n" << Usage();
      return false;
    }
    if (!SetValue(arg, argv[++i])) return false;
  }
  return true;
}

std::string FlagSet::Usage() const {
  std::ostringstream out;
  out << "flags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.default_value << ")  "
        << flag.help << "\n";
  }
  return out.str();
}

}  // namespace pafeat
