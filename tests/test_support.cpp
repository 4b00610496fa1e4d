/**
 * @file
 * Unit tests for the support library: bit utilities, RNG determinism,
 * the stat registry, and the JSON document model (serialiser + parser).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "support/bits.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace
{

using namespace support;

TEST(Bits, MaskWidths)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(32), 0xffffffffu);
    EXPECT_EQ(mask(64), ~uint64_t{0});
}

TEST(Bits, Extract)
{
    EXPECT_EQ(bits(0xdeadbeef, 31, 16), 0xdeadu);
    EXPECT_EQ(bits(0xdeadbeef, 15, 0), 0xbeefu);
    EXPECT_EQ(bits(0xdeadbeef, 7, 4), 0xeu);
    EXPECT_TRUE(bit(0x80000000u, 31));
    EXPECT_FALSE(bit(0x80000000u, 30));
}

TEST(Bits, Insert)
{
    EXPECT_EQ(insertBits(0, 15, 8, 0xab), 0xab00u);
    EXPECT_EQ(insertBits(0xffffffff, 15, 8, 0), 0xffff00ffu);
    // Field wider than the slot is truncated.
    EXPECT_EQ(insertBits(0, 3, 0, 0x1f), 0xfu);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend32(0xfff, 12), -1);
    EXPECT_EQ(signExtend32(0x7ff, 12), 0x7ff);
    EXPECT_EQ(signExtend32(0x800, 12), -2048);
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
}

TEST(Bits, CountLeadingZeros)
{
    EXPECT_EQ(countLeadingZeros(0, 26), 26u);
    EXPECT_EQ(countLeadingZeros(1, 26), 25u);
    EXPECT_EQ(countLeadingZeros(1u << 25, 26), 0u);
    EXPECT_EQ(countLeadingZeros(0x3, 4), 2u);
}

TEST(Bits, PowersAndRounding)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
    EXPECT_EQ(roundDown(13, 8), 8u);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedAndRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.nextBounded(17), 17u);
        const int32_t v = r.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        const float f = r.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
    }
}

TEST(Stats, AddGetMerge)
{
    StatSet s;
    EXPECT_EQ(s.get("missing"), 0u);
    s.add("cycles", 10);
    s.add("cycles", 5);
    EXPECT_EQ(s.get("cycles"), 15u);
    s.set("cycles", 3);
    EXPECT_EQ(s.get("cycles"), 3u);

    StatSet t;
    t.add("cycles", 7);
    t.add("instrs", 2);
    s.merge(t);
    EXPECT_EQ(s.get("cycles"), 10u);
    EXPECT_EQ(s.get("instrs"), 2u);
}

TEST(Stats, TrackMax)
{
    StatSet s;
    s.trackMax("vrf_peak", 5);
    s.trackMax("vrf_peak", 3);
    EXPECT_EQ(s.get("vrf_peak"), 5u);
    s.trackMax("vrf_peak", 9);
    EXPECT_EQ(s.get("vrf_peak"), 9u);
}

TEST(Stats, ToStringSorted)
{
    StatSet s;
    s.add("b", 2);
    s.add("a", 1);
    EXPECT_EQ(s.toString(), "a = 1\nb = 2\n");
}

TEST(Stats, HandleCreatesCounterLazily)
{
    StatSet s;
    StatSet::Handle h = s.handle("hot");
    // Taking a handle alone must not create the counter: the set of
    // emitted counters depends only on what actually ran.
    EXPECT_FALSE(s.has("hot"));
    h.add();
    EXPECT_TRUE(s.has("hot"));
    EXPECT_EQ(s.get("hot"), 1u);
    h.add(4);
    EXPECT_EQ(s.get("hot"), 5u);
}

TEST(Stats, HandleTrackMax)
{
    StatSet s;
    StatSet::Handle h = s.handle("peak");
    h.trackMax(5);
    h.trackMax(3);
    EXPECT_EQ(s.get("peak"), 5u);
    h.trackMax(9);
    EXPECT_EQ(s.get("peak"), 9u);
}

TEST(Stats, HandleReResolvesAfterClear)
{
    StatSet s;
    StatSet::Handle h = s.handle("n");
    h.add(7);
    EXPECT_EQ(s.get("n"), 7u);
    // clear() destroys every map node; the cached slot pointer dangles
    // and the handle must re-resolve via the generation check instead
    // of writing through it.
    s.clear();
    EXPECT_FALSE(s.has("n"));
    h.add(2);
    EXPECT_EQ(s.get("n"), 2u);
}

TEST(Stats, HandlesShareOneCounter)
{
    StatSet s;
    StatSet::Handle a = s.handle("shared");
    StatSet::Handle b = s.handle("shared");
    a.add(1);
    b.add(2);
    EXPECT_EQ(s.get("shared"), 3u);
}

// ------------------------------------------------------------------- JSON

TEST(Json, DumpCompact)
{
    using json::Value;
    Value obj = Value::object();
    obj.set("name", Value::str("VecAdd"));
    obj.set("ok", Value::boolean(true));
    obj.set("cycles", Value::integer(5683));
    Value arr = Value::array();
    arr.push(Value::integer(1));
    arr.push(Value::null());
    obj.set("list", std::move(arr));
    EXPECT_EQ(obj.dump(),
              "{\"name\":\"VecAdd\",\"ok\":true,\"cycles\":5683,"
              "\"list\":[1,null]}");
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    using json::Value;
    Value obj = Value::object();
    obj.set("zebra", Value::integer(1));
    obj.set("apple", Value::integer(2));
    obj.set("zebra", Value::integer(3)); // replace keeps first position
    EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"apple\":2}");
}

TEST(Json, ExactSixtyFourBitIntegers)
{
    using json::Value;
    const uint64_t big = 0xffffffffffffffffull;
    Value v = Value::integer(big);
    EXPECT_EQ(v.dump(), "18446744073709551615");
    Value parsed;
    ASSERT_TRUE(Value::parse(v.dump(), parsed));
    EXPECT_TRUE(parsed.isInt());
    EXPECT_EQ(parsed.asUint(), big);
}

TEST(Json, StringEscapes)
{
    using json::Value;
    Value v = Value::str("a\"b\\c\n\t\x01");
    Value parsed;
    ASSERT_TRUE(Value::parse(v.dump(), parsed));
    EXPECT_EQ(parsed.asString(), "a\"b\\c\n\t\x01");
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    using json::Value;
    Value out;
    // One escape per UTF-8 length class: ASCII, 2-byte (é), 3-byte (€).
    ASSERT_TRUE(Value::parse("\"\\u0041\\u00e9\\u20ac\"", out));
    EXPECT_EQ(out.asString(), "A\xc3\xa9\xe2\x82\xac");
    // A surrogate pair combines into one supplementary-plane code point
    // (U+1D11E, musical G clef -> 4-byte UTF-8).
    ASSERT_TRUE(Value::parse("\"\\ud834\\udd1e\"", out));
    EXPECT_EQ(out.asString(), "\xf0\x9d\x84\x9e");
}

TEST(Json, UnicodeEscapesRejectLoneSurrogates)
{
    using json::Value;
    Value out;
    std::string err;
    // High surrogate with no continuation, with a non-escape following,
    // with a non-surrogate escape following, and a bare low surrogate.
    EXPECT_FALSE(Value::parse("\"\\ud834\"", out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(Value::parse("\"\\ud834x\"", out));
    EXPECT_FALSE(Value::parse("\"\\ud834\\u0041\"", out));
    EXPECT_FALSE(Value::parse("\"\\udd1e\"", out));
    // Truncated hex digits still fail cleanly.
    EXPECT_FALSE(Value::parse("\"\\u12\"", out));
    EXPECT_FALSE(Value::parse("\"\\ud834\\ud8\"", out));
}

TEST(Json, RoundTripThroughPrettyPrinter)
{
    using json::Value;
    Value doc = Value::object();
    doc.set("schema", Value::str("cheri-simt-bench-v1"));
    Value results = Value::array();
    Value entry = Value::object();
    entry.set("bench", Value::str("Transpose"));
    entry.set("ok", Value::boolean(false));
    entry.set("ratio", Value::number(1.25));
    results.push(std::move(entry));
    doc.set("results", std::move(results));

    Value parsed;
    std::string err;
    ASSERT_TRUE(Value::parse(doc.dump(2), parsed, &err)) << err;
    EXPECT_EQ(parsed.get("schema").asString(), "cheri-simt-bench-v1");
    const Value &r = parsed.get("results").at(0);
    EXPECT_EQ(r.get("bench").asString(), "Transpose");
    EXPECT_FALSE(r.get("ok").asBool());
    EXPECT_DOUBLE_EQ(r.get("ratio").asDouble(), 1.25);
    // Re-dumping the parsed document reproduces the text exactly.
    EXPECT_EQ(parsed.dump(2), doc.dump(2));
}

TEST(Json, ParserRejectsMalformedInput)
{
    using json::Value;
    Value out;
    EXPECT_FALSE(Value::parse("", out));
    EXPECT_FALSE(Value::parse("{", out));
    EXPECT_FALSE(Value::parse("{\"a\":}", out));
    EXPECT_FALSE(Value::parse("[1,]", out));
    EXPECT_FALSE(Value::parse("tru", out));
    EXPECT_FALSE(Value::parse("{} trailing", out));
    std::string err;
    EXPECT_FALSE(Value::parse("{\"a\":1,}", out, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Json, ParserAcceptsNumbersAndNesting)
{
    using json::Value;
    Value out;
    ASSERT_TRUE(Value::parse(
        " { \"a\" : [ -1.5e2 , 0 , {\"b\": [true, false, null]} ] } ",
        out));
    const Value &arr = out.get("a");
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr.at(0).asDouble(), -150.0);
    EXPECT_TRUE(arr.at(1).isInt());
    EXPECT_TRUE(arr.at(2).get("b").at(2).isNull());
}

TEST(Json, AbsentObjectKeysReadAsNull)
{
    using json::Value;
    Value obj = Value::object();
    EXPECT_FALSE(obj.has("missing"));
    EXPECT_TRUE(obj.get("missing").isNull());
}

// ------------------------------------------------------------------ Trace

TEST(Trace, BufferMasksCategories)
{
    using namespace support::trace;
    Buffer buf(kCatTrap | kCatLaunch, 8, 0);
    EXPECT_TRUE(buf.wants(kCatTrap));
    EXPECT_TRUE(buf.wants(kCatLaunch));
    EXPECT_FALSE(buf.wants(kCatCounter));
}

TEST(Trace, RingDropsOldestDeterministically)
{
    using namespace support::trace;
    Buffer buf(kCatAll, 4, 0);
    for (int i = 0; i < 6; ++i) {
        buf.setNow(static_cast<uint64_t>(i));
        std::string name = "e";
        name += std::to_string(i);
        buf.emit(EventKind::Instant, kCatLaunch, std::move(name));
    }
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.dropped(), 2u);
    const auto events = buf.drain();
    ASSERT_EQ(events.size(), 4u);
    // Oldest two (e0, e1) were overwritten; drain is oldest-first.
    EXPECT_EQ(events.front().name, "e2");
    EXPECT_EQ(events.back().name, "e5");
    EXPECT_EQ(buf.size(), 0u);
}

TEST(Trace, SessionMergesBuffersInSmIndexOrder)
{
    using namespace support::trace;
    Session session;
    session.beginTrack("t");
    // Populate out of order: SM 1 first, then SM 0, then the device.
    session.smBuffer(1)->emit(EventKind::Instant, kCatLaunch, "sm1");
    session.smBuffer(0)->emit(EventKind::Instant, kCatLaunch, "sm0");
    session.deviceBuffer()->emit(EventKind::Instant, kCatLaunch, "dev");
    session.commitAttempt(10);

    const support::json::Value doc = session.chromeTrace("unit");
    const support::json::Value &events = doc.get("traceEvents");
    // Skip the metadata events; order must be device, sm0, sm1.
    std::vector<std::string> names;
    for (size_t i = 0; i < events.size(); ++i) {
        const std::string ph = events.at(i).get("ph").asString();
        if (ph != "M")
            names.push_back(events.at(i).get("name").asString());
    }
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "dev");
    EXPECT_EQ(names[1], "sm0");
    EXPECT_EQ(names[2], "sm1");
}

TEST(Trace, CommitAttemptAdvancesTrackTimeline)
{
    using namespace support::trace;
    Session session;
    session.beginTrack("t");
    session.deviceBuffer()->setNow(5);
    session.deviceBuffer()->emit(EventKind::Instant, kCatLaunch, "a");
    session.commitAttempt(100);
    session.deviceBuffer()->setNow(5);
    session.deviceBuffer()->emit(EventKind::Instant, kCatLaunch, "b");
    session.commitAttempt(100);

    const support::json::Value doc = session.chromeTrace("unit");
    const support::json::Value &events = doc.get("traceEvents");
    std::vector<uint64_t> ts;
    for (size_t i = 0; i < events.size(); ++i)
        if (events.at(i).get("ph").asString() == "i")
            ts.push_back(events.at(i).get("ts").asUint());
    ASSERT_EQ(ts.size(), 2u);
    EXPECT_EQ(ts[0], 5u);
    EXPECT_EQ(ts[1], 106u); // rebased past attempt 1 (100 cycles + 1)
}

TEST(Trace, ProfileScratchPointersSurviveGrowth)
{
    using namespace support::trace;
    SessionConfig cfg;
    cfg.profile = true;
    Session session(cfg);
    session.beginTrack("t");
    // The scratch handed to SM 0 must stay valid while scratch for
    // later SMs is created (a launch attaches all SMs up front).
    StepProfile *s0 = session.stepScratch(0, 4);
    ASSERT_NE(s0, nullptr);
    s0->pcCounts[1] = 7;
    for (unsigned k = 1; k < 8; ++k)
        ASSERT_NE(session.stepScratch(k, 4), nullptr);
    s0->pcCounts[2] = 3;
    session.foldProfile();
    const KernelProfile *prof = session.profileFor("t");
    ASSERT_NE(prof, nullptr);
    EXPECT_EQ(prof->pcCounts[1], 7u);
    EXPECT_EQ(prof->pcCounts[2], 3u);
    EXPECT_EQ(prof->launches, 1u);
}

// ---------------------------------------------------------------- Logging

TEST(Logging, LevelsAreOrdered)
{
    const support::LogLevel saved = support::logLevel();
    support::setLogLevel(support::LogLevel::Warn);
    EXPECT_TRUE(support::logEnabled(support::LogLevel::Error));
    EXPECT_TRUE(support::logEnabled(support::LogLevel::Warn));
    EXPECT_FALSE(support::logEnabled(support::LogLevel::Info));
    EXPECT_FALSE(support::logEnabled(support::LogLevel::Debug));
    EXPECT_FALSE(support::verbose());

    support::setLogLevel(support::LogLevel::Debug);
    EXPECT_TRUE(support::logEnabled(support::LogLevel::Info));
    EXPECT_TRUE(support::logEnabled(support::LogLevel::Debug));
    EXPECT_TRUE(support::verbose());

    support::setVerbose(false);
    EXPECT_FALSE(support::verbose());
    support::setVerbose(true);
    EXPECT_TRUE(support::verbose());
    EXPECT_FALSE(support::logEnabled(support::LogLevel::Debug));
    support::setLogLevel(saved);
}

} // namespace
