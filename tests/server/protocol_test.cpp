#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "server/json_parse.hpp"

namespace htp::serve {
namespace {

// --- JSON parser ---

TEST(JsonParse, ParsesScalarsContainersAndEscapes) {
  const JsonValue doc = ParseJson(
      R"({"s":"a\"b\u00e9\n","n":-1.5e2,"t":true,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":0}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("s")->string_value, "a\"b\xc3\xa9\n");
  EXPECT_EQ(doc.Find("n")->number_value, -150.0);
  EXPECT_TRUE(doc.Find("t")->bool_value);
  EXPECT_TRUE(doc.Find("z")->is_null());
  EXPECT_EQ(doc.Find("arr")->array_value.size(), 3u);
  EXPECT_EQ(doc.Find("obj")->object_value.size(), 1u);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(ParseJson(""), Error);
  EXPECT_THROW(ParseJson("{"), Error);
  EXPECT_THROW(ParseJson("{\"a\":1,}"), Error);
  EXPECT_THROW(ParseJson("[1 2]"), Error);
  EXPECT_THROW(ParseJson("01"), Error);       // leading zero
  EXPECT_THROW(ParseJson("\"\\q\""), Error);  // unknown escape
  EXPECT_THROW(ParseJson("{} trailing"), Error);
  EXPECT_THROW(ParseJson("nul"), Error);
}

// The parser recurses once per container, so nesting is capped: one line
// of 200k '[' used to overflow the stack and kill the daemon.
TEST(JsonParse, RejectsDeepNestingWithAnError) {
  const std::size_t deep = 200000;
  EXPECT_THROW(ParseJson(std::string(deep, '[')), Error);
  EXPECT_THROW(ParseJson(std::string(deep, '[') + std::string(deep, ']')),
               Error);
  std::string objects;
  for (std::size_t i = 0; i < deep; ++i) objects += "{\"a\":";
  EXPECT_THROW(ParseJson(objects), Error);
  try {
    ParseJson(std::string(129, '[') + std::string(129, ']'));
    FAIL() << "129 levels parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 128"),
              std::string::npos)
        << e.what();
  }
  const JsonValue doc =
      ParseJson(std::string(128, '[') + std::string(128, ']'));
  EXPECT_EQ(doc.array_value.size(), 1u);
}

TEST(JsonParse, SurrogatePairsDecodeToUtf8) {
  const JsonValue doc = ParseJson(R"("\ud83d\ude00")");
  EXPECT_EQ(doc.string_value, "\xf0\x9f\x98\x80");  // U+1F600
  EXPECT_THROW(ParseJson(R"("\ud83d")"), Error);  // lone high surrogate
}

// --- Request decoding ---

TEST(Protocol, DecodesPartitionRequestWithDefaults) {
  const ServeRequest request =
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","id":7})"));
  EXPECT_EQ(request.op, "partition");
  EXPECT_EQ(request.id_json, "7");
  EXPECT_EQ(request.session.circuit, "c1355");
  EXPECT_EQ(request.session.algo, "flow");
  EXPECT_EQ(request.session.height, 4u);
  EXPECT_EQ(request.session.iterations, 4u);
  EXPECT_EQ(request.session.seed, 1u);
  EXPECT_EQ(request.deadline_ms, 0.0);
  EXPECT_FALSE(request.want_report);
  EXPECT_EQ(request.session.report_tool, "htp_serve");
}

TEST(Protocol, DecodesExplicitFields) {
  const ServeRequest request = ParseServeRequest(ParseJson(
      R"({"circuit":"c2670","id":"req-1","height":3,"branching":4,)"
      R"("slack":0.2,"weights":[1,4,16],"iterations":2,"seed":9,)"
      R"("deadline_ms":1500,"refine":true,"report":true})"));
  EXPECT_EQ(request.id_json, "\"req-1\"");
  EXPECT_EQ(request.session.height, 3u);
  EXPECT_EQ(request.session.branching, 4u);
  EXPECT_EQ(request.session.weights, (std::vector<double>{1, 4, 16}));
  EXPECT_EQ(request.session.seed, 9u);
  EXPECT_TRUE(request.session.refine);
  EXPECT_EQ(request.deadline_ms, 1500.0);
  EXPECT_EQ(request.session.budget.time_budget_seconds, 1.5);
  EXPECT_TRUE(request.want_report);
  EXPECT_TRUE(request.session.collect_report);
}

// The v1 grammar keeps `build_threads`, but construction is always serial:
// 1 decodes, any other value is rejected with an explanatory error.
TEST(Protocol, BuildThreadsAcceptsOnlyOne) {
  const ServeRequest request = ParseServeRequest(
      ParseJson(R"({"circuit":"c1355","build_threads":1})"));
  EXPECT_EQ(request.session.build_threads, 1u);
  try {
    ParseServeRequest(ParseJson(R"({"circuit":"c1355","build_threads":2})"));
    FAIL() << "build_threads 2 decoded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tasked construction mode was "
                                         "removed"),
              std::string::npos)
        << e.what();
  }
}

TEST(Protocol, RejectsUnknownMembersAndBadTypes) {
  // Strict decoding: a typo must fail loudly, not run with defaults.
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","iteration":9})")),
      Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(R"([1,2])")), Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","height":"x"})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","height":2.5})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","deadline_ms":-1})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","id":[1]})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","weights":[true]})")),
      Error);
}

TEST(Protocol, RejectsBadSourceCombinations) {
  EXPECT_THROW(ParseServeRequest(ParseJson(R"({"seed":1})")), Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"x({"circuit":"c1355","bench_text":"INPUT(a)"})x")),
               Error);
  // ...but control ops need no netlist source.
  EXPECT_EQ(ParseServeRequest(ParseJson(R"({"op":"ping"})")).op, "ping");
}

TEST(Protocol, RejectsWrongSchemaOrVersion) {
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"({"schema":"htp-run-report","circuit":"c1355"})")),
               Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"({"schema_version":2,"circuit":"c1355"})")),
               Error);
  const ServeRequest ok = ParseServeRequest(ParseJson(
      R"({"schema":"htp-serve-request","schema_version":1,)"
      R"("circuit":"c1355"})"));
  EXPECT_EQ(ok.op, "partition");
}

TEST(Protocol, RejectsUnknownOp) {
  EXPECT_THROW(ParseServeRequest(ParseJson(R"({"op":"restart"})")), Error);
}

// --- Response rendering ---

TEST(Protocol, AckAndErrorResponsesAreWellFormed) {
  const std::string ack = RenderServeAck("\"a\"", "ping");
  const JsonValue ack_doc = ParseJson(ack);
  EXPECT_EQ(ack_doc.Find("schema")->string_value, "htp-serve-response");
  EXPECT_EQ(ack_doc.Find("schema_version")->number_value, 1.0);
  EXPECT_EQ(ack_doc.Find("id")->string_value, "a");
  EXPECT_EQ(ack_doc.Find("status")->string_value, "ok");
  EXPECT_EQ(ack_doc.Find("op")->string_value, "ping");

  const std::string err = RenderServeError("null", "request: bad \"thing\"");
  const JsonValue err_doc = ParseJson(err);
  EXPECT_TRUE(err_doc.Find("id")->is_null());
  EXPECT_EQ(err_doc.Find("status")->string_value, "error");
  EXPECT_EQ(err_doc.Find("error")->string_value, "request: bad \"thing\"");
}

// --- Line framing ---

std::vector<LineFramer::Line> Drain(LineFramer& framer) {
  std::vector<LineFramer::Line> lines;
  while (std::optional<LineFramer::Line> line = framer.Next())
    lines.push_back(std::move(*line));
  return lines;
}

TEST(LineFramer, SplitsLinesAcrossChunks) {
  LineFramer framer(16);
  framer.Append("ab");
  EXPECT_TRUE(Drain(framer).empty());
  framer.Append("c\nde\n\nf");
  const std::vector<LineFramer::Line> lines = Drain(framer);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "abc");
  EXPECT_EQ(lines[1].text, "de");
  EXPECT_EQ(lines[2].text, "");
  for (const LineFramer::Line& line : lines) EXPECT_FALSE(line.too_long);
  framer.Append("g\n");
  const std::vector<LineFramer::Line> tail = Drain(framer);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].text, "fg");
}

// A line over the cap is reported once, as soon as the cap is crossed, and
// its bytes are dropped through the next newline; the line after it frames
// intact. A line of exactly the cap is still accepted.
TEST(LineFramer, OverlongLineIsReportedOnceAndSkipped) {
  LineFramer framer(8);
  framer.Append("12345678\n");
  std::vector<LineFramer::Line> lines = Drain(framer);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "12345678");

  framer.Append("123456789");
  lines = Drain(framer);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].too_long);
  EXPECT_TRUE(lines[0].text.empty());
  framer.Append(std::string(1000, 'x'));
  EXPECT_TRUE(Drain(framer).empty());
  framer.Append("xx\n{\"op\":1}\n");
  lines = Drain(framer);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_FALSE(lines[0].too_long);
  EXPECT_EQ(lines[0].text, "{\"op\":1}");

  // An overlong line whose newline arrives in the same chunk.
  framer.Append("abcdefghij\nok\n");
  lines = Drain(framer);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].too_long);
  EXPECT_EQ(lines[1].text, "ok");
}

}  // namespace
}  // namespace htp::serve
