// JsonEscape (src/common/json.h): the one string escaper every JSON emitter
// shares. Plain ASCII passes through byte for byte (what keeps the snapshot,
// trace and Prometheus goldens unchanged); quotes, backslashes and every
// control byte come out escaped.
#include "src/common/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace psp {
namespace {

TEST(JsonEscape, PlainAsciiPassesThrough) {
  EXPECT_EQ(JsonEscape("sim.engine.executed"), "sim.engine.executed");
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("a b~\x7f"), "a b~\x7f");
}

TEST(JsonEscape, QuotesBackslashesNewlinesTabs) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("x\ny\tz"), "x\\ny\\tz");
}

TEST(JsonEscape, EveryOtherControlByteBecomesUnicodeEscape) {
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\n' || c == '\t') {
      continue;
    }
    const std::string escaped = JsonEscape(std::string(1, static_cast<char>(c)));
    char want[8];
    std::snprintf(want, sizeof(want), "\\u%04x", c);
    EXPECT_EQ(escaped, want) << "byte " << c;
  }
  EXPECT_EQ(JsonEscape(std::string("\x01X", 2)), "\\u0001X");
  EXPECT_EQ(JsonEscape(std::string("\0", 1)), "\\u0000");
}

TEST(JsonEscape, HighBytesPassThrough) {
  // UTF-8 multi-byte sequences are already valid inside JSON strings.
  EXPECT_EQ(JsonEscape("Pers\xc3\xa9phone"), "Pers\xc3\xa9phone");
}

}  // namespace
}  // namespace psp
