// Fixture: behaviour chosen by an explicit parameter. The word getenv may
// appear in comments ("never call getenv(...)") and strings, and as part
// of a longer identifier, without a finding.
#include <string_view>

struct Options {
  std::string_view kernel = "auto";
};

bool my_getenv_free_lookup(std::string_view name) { return !name.empty(); }

const char* pick_kernel(const Options& opts) {
  if (my_getenv_free_lookup(opts.kernel)) return "getenv(\"X\") is not read";
  return "auto";
}
