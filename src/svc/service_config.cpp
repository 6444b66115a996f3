#include "svc/service_config.h"

#include <climits>
#include <cstring>

namespace tta::svc {

bool flag_value(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

bool parse_decimal(const char* text, std::uint64_t max, std::uint64_t* out) {
  if (*text == '\0') return false;
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (digit > max || value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool parse_flag_number(const char* flag, const char* text, std::uint64_t max,
                       std::uint64_t* out, std::string* error) {
  if (parse_decimal(text, max, out)) return true;
  *error = std::string(flag) + " expects an unsigned integer <= " +
           std::to_string(max) + ", got '" + text + "'";
  return false;
}

FlagParse parse_service_flag(const char* arg, ServiceConfig* config,
                             std::string* error) {
  const char* v = nullptr;
  std::uint64_t n = 0;
  if (flag_value(arg, "--workers", &v)) {
    if (!parse_flag_number("--workers", v, UINT_MAX, &n, error)) {
      return FlagParse::kBad;
    }
    config->workers = static_cast<unsigned>(n);
  } else if (flag_value(arg, "--cache", &v)) {
    if (!parse_flag_number("--cache", v, SIZE_MAX, &n, error)) {
      return FlagParse::kBad;
    }
    config->cache_capacity = static_cast<std::size_t>(n);
  } else if (flag_value(arg, "--retries", &v)) {
    // Stored as total attempts, so one below the unsigned ceiling.
    if (!parse_flag_number("--retries", v, UINT_MAX - 1u, &n, error)) {
      return FlagParse::kBad;
    }
    config->retry.max_attempts = 1 + static_cast<unsigned>(n);
  } else if (flag_value(arg, "--cache-dir", &v)) {
    config->cache_dir = v;
  } else if (flag_value(arg, "--checkpoint-dir", &v)) {
    config->checkpoint_dir = v;
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kOk;
}

}  // namespace tta::svc
