#include "util/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <strings.h>

namespace stgraph {

bool env_flag(const char* name, const char* value, bool dflt) {
  if (value == nullptr || *value == '\0') return dflt;
  for (const char* s : {"1", "on", "true", "yes"})
    if (strcasecmp(value, s) == 0) return true;
  for (const char* s : {"0", "off", "false", "no"})
    if (strcasecmp(value, s) == 0) return false;
  std::fprintf(stderr,
               "stgraph: ignoring %s=\"%s\" (want 1/on/true/yes or "
               "0/off/false/no); using the default, %s\n",
               name, value, dflt ? "on" : "off");
  return dflt;
}

bool env_flag(const char* name, bool dflt) {
  return env_flag(name, std::getenv(name), dflt);
}

}  // namespace stgraph
