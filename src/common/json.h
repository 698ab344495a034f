// JSON string escaping shared by every hand-written JSON emitter (telemetry
// snapshots, trace export, fleet snapshots, the admin plane, trace joins and
// the bench tables).
#ifndef PSP_SRC_COMMON_JSON_H_
#define PSP_SRC_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace psp {

// Returns `s` escaped for use inside a JSON string literal (without the
// surrounding quotes): `"` and `\` are backslash-escaped, newline and tab
// become \n and \t, and every other byte below 0x20 becomes \u00XX. Bytes
// >= 0x20 pass through unchanged, so plain-ASCII names are copied verbatim.
std::string JsonEscape(std::string_view s);

}  // namespace psp

#endif  // PSP_SRC_COMMON_JSON_H_
