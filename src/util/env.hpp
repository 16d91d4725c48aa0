// The one grammar for boolean STGRAPH_* switches (STGRAPH_VALIDATE,
// STGRAPH_DEADLOCK).
#pragma once

namespace stgraph {

/// Reads the switch `name` whose value is `value` (nullptr when unset):
/// unset or empty gives `dflt`; `1`/`on`/`true`/`yes` give true and
/// `0`/`off`/`false`/`no` give false, in any letter case; anything else
/// gives `dflt` plus one warning on stderr naming `name`. The warning goes
/// through plain fprintf because STGRAPH_DEADLOCK is read during static
/// initialisation, before the logger's mutex is guaranteed to exist.
bool env_flag(const char* name, const char* value, bool dflt);

/// env_flag(name, std::getenv(name), dflt).
bool env_flag(const char* name, bool dflt);

}  // namespace stgraph
