#include "util/flags.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace topkmon {

namespace {

/// Parses the whole of `value` with `parse` (a strto* call); anything left
/// over, an empty value or an out-of-range number throws, naming the flag.
template <typename T, typename Parse>
T parse_number(const std::string& name, const std::string& value,
               const char* expected, Parse parse) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const T v = parse(begin, &end);
  if (value.empty() || end != begin + value.size() || errno == ERANGE) {
    throw std::invalid_argument("invalid value '" + value + "' for --" + name +
                                " (expected " + expected + ")");
  }
  return v;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string name, value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      name = arg;
      value = argv[++i];
    } else {
      name = arg;
      value = "true";
    }
    values_[name] = value;
    all_values_[name].push_back(std::move(value));
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) != 0; }

std::string Flags::get_string(const std::string& name, std::string def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return parse_number<std::int64_t>(name, it->second, "an integer",
                                    [](const char* s, char** end) {
                                      return std::strtoll(s, end, 10);
                                    });
}

std::uint64_t Flags::get_uint(const std::string& name, std::uint64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  // strtoull accepts "-1" and wraps it around; an unsigned flag rejects it.
  const auto non_negative = [](const char* s, char** end) {
    if (std::strchr(s, '-') != nullptr) {
      *end = const_cast<char*>(s);
      return 0ull;
    }
    return std::strtoull(s, end, 10);
  };
  return parse_number<std::uint64_t>(name, it->second, "an unsigned integer",
                                     non_negative);
}

double Flags::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return parse_number<double>(name, it->second, "a number",
                              [](const char* s, char** end) {
                                return std::strtod(s, end);
                              });
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);  // map: sorted
  return out;
}

std::vector<std::string> Flags::get_all(const std::string& name) const {
  const auto it = all_values_.find(name);
  return it == all_values_.end() ? std::vector<std::string>{} : it->second;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("invalid value '" + v + "' for --" + name +
                              " (expected true/false/1/0/yes/no)");
}

}  // namespace topkmon
