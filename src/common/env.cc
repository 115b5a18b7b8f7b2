#include "common/env.h"

#include <cstdlib>
#include <cstring>

namespace grimp {

const char* EnvOverrides::Raw(const char* name) { return std::getenv(name); }

int EnvOverrides::PositiveInt(const char* name, int fallback) {
  const char* raw = Raw(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || v <= 0) return fallback;
  return static_cast<int>(v);
}

std::string EnvOverrides::String(const char* name,
                                 const std::string& fallback) {
  const char* raw = Raw(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  return raw;
}

bool EnvOverrides::EnabledFlag(const char* name) {
  const char* raw = Raw(name);
  return raw == nullptr || std::strcmp(raw, "0") != 0;
}

}  // namespace grimp
