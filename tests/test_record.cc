/**
 * @file
 * Tests for the per-point record (bench/runner.hh, DESIGN.md §11):
 * the one JSON object a sweep point becomes in the results file, on a
 * worker's pipe, in the journal and in the cache. The reader must be
 * strict — negative, fractional and out-of-range integers, mistyped
 * array elements and unknown keys are rejected — and must survive any
 * input: every line of a deterministic corrupted-line corpus is either
 * rejected with a reason or reads back to the record it then writes.
 * Journal lines of the retired per-line format are quarantined, and
 * their points re-run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "bench/runner.hh"

namespace cpx
{
namespace
{

using namespace cpx::bench;

std::string
recordOf(const SweepResult &result)
{
    std::string record;
    appendRecord(record, result);
    return record;
}

/**
 * One real record with every optional block: a sampled, attributed
 * migratory run under P+CW on two processors. Its host time is pinned
 * so the record, and so the corpus built from it, is the same on
 * every run.
 */
const std::string &
realRecord()
{
    static const std::string record = [] {
        Options opts;
        opts.scale = 0.2;
        opts.procs = 2;
        opts.jobs = 1;
        opts.attrib = true;
        opts.sampleInterval = 20000;
        SweepRunner runner(opts);
        std::size_t h = runner.add(
            "migratory", makeParams(ProtocolConfig::pcw()), "corpus");
        runner.runAll();
        SweepResult result = runner[h];
        result.hostSeconds = 0.25;
        return recordOf(result);
    }();
    return record;
}

/** @p text with the first @p from replaced by @p to. */
std::string
with(std::string text, const std::string &from, const std::string &to)
{
    std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text
                                   : text.replace(at, from.size(), to);
}

std::string
readFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file.good()) << "cannot open " << path;
    return std::string(std::istreambuf_iterator<char>(file),
                       std::istreambuf_iterator<char>());
}

TEST(Record, RealRecordReadsBackExactly)
{
    const std::string &record = realRecord();
    for (const char *block : {"\"timeseries\":", "\"attribution\":",
                              "\"detail\":", "\"kernel\":"})
        EXPECT_NE(record.find(block), std::string::npos) << block;
    EXPECT_EQ(record.find('\n'), std::string::npos);

    SweepResult parsed;
    std::string error;
    ASSERT_TRUE(readRecord(record, parsed, error)) << error;
    EXPECT_EQ(parsed.status, PointStatus::Ok);
    EXPECT_EQ(parsed.point.app, "migratory");
    EXPECT_EQ(parsed.run.execTime, parsed.run.stats.execTime);
    EXPECT_TRUE(parsed.run.stats.attribution.enabled);
    EXPECT_FALSE(parsed.run.stats.timeseries.empty());
    // Nothing the sweep JSON omits is lost: the histogram sums and
    // the traffic by message class come back through "detail".
    EXPECT_GT(parsed.run.stats.readMissLatency.summary().sum(), 0.0);
    EXPECT_GT(parsed.run.stats.bytesOf(MsgClass::Request), 0u);
    EXPECT_EQ(recordOf(parsed), record);
}

TEST(Record, FailedPointCarriesNoStats)
{
    SweepResult crashed;
    crashed.point.app = "mp3d";
    crashed.status = PointStatus::Signal;
    crashed.error = "killed by signal 6";
    crashed.attempts = 2;
    std::string record = recordOf(crashed);
    EXPECT_EQ(record.find("execTime"), std::string::npos);

    SweepResult parsed;
    std::string error;
    ASSERT_TRUE(readRecord(record, parsed, error)) << error;
    EXPECT_EQ(parsed.status, PointStatus::Signal);
    EXPECT_EQ(parsed.error, crashed.error);
    EXPECT_EQ(parsed.attempts, 2u);
    EXPECT_EQ(recordOf(parsed), record);

    // A failed record may not smuggle stats in, nor lose its error.
    EXPECT_FALSE(readRecord(with(record, "\"hostSeconds\"",
                                 "\"execTime\":5,\"hostSeconds\""),
                            parsed, error));
    EXPECT_FALSE(readRecord(with(record, "\"error\"", "\"errors\""),
                            parsed, error));
}

TEST(Record, IntegersAreStrict)
{
    const std::string &record = realRecord();
    SweepResult parsed;
    std::string error;
    ASSERT_TRUE(readRecord(record, parsed, error)) << error;
    const std::string bytes =
        "\"traffic\":{\"bytes\":" +
        std::to_string(parsed.run.stats.netBytes);
    const std::string class_bytes =
        "\"classBytes\":[" +
        std::to_string(parsed.run.stats.classBytes[0]);

    for (const char *bad : {"-1", "1.0", "1e0", "4294967296", "\"1\""}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(readRecord(with(record, "\"attempts\":1",
                                     std::string("\"attempts\":") + bad),
                                parsed, error));
        EXPECT_NE(error.find("attempts"), std::string::npos) << error;
    }
    for (const char *bad : {"-5", "0.5", "18446744073709551616"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(readRecord(
            with(record, bytes, "\"traffic\":{\"bytes\":" +
                                    std::string(bad)),
            parsed, error));
        EXPECT_NE(error.find("bytes"), std::string::npos) << error;
    }
    EXPECT_FALSE(readRecord(with(record, class_bytes,
                                 "\"classBytes\":[\"zz\""),
                            parsed, error));
    EXPECT_NE(error.find("classBytes"), std::string::npos) << error;

    // Every u64 survives exactly, far past a double's 2^53.
    ASSERT_TRUE(readRecord(with(record, bytes,
                                "\"traffic\":{\"bytes\":"
                                "18446744073709551615"),
                           parsed, error))
        << error;
    EXPECT_EQ(parsed.run.stats.netBytes, 18446744073709551615ull);
    ASSERT_TRUE(readRecord(with(record, class_bytes,
                                "\"classBytes\":[9007199254740993"),
                           parsed, error))
        << error;
    EXPECT_EQ(parsed.run.stats.classBytes[0], 9007199254740993ull);
}

TEST(Record, ShapeIsStrict)
{
    const std::string &record = realRecord();
    SweepResult parsed;
    std::string error;
    const std::pair<const char *, const char *> edits[] = {
        {"{\"tag\"", "{\"extra\":1,\"tag\""},       // unknown key
        {"\"busy\"", "\"bus\""},                     // missing key
        {"\"bucketWidth\":16", "\"bucketWidth\":32"}, // wrong geometry
        {"\"breakdown\":{\"busy\":", "\"breakdown\":{\"busy\":1e999,"
                                     "\"x\":"},      // not finite
        {"\"status\":\"ok\"", "\"status\":\"fine\""}, // unknown status
        {"\"classes\":{\"", "\"classes\":{\"nope\":{},\""},
    };
    for (const auto &[from, to] : edits) {
        SCOPED_TRACE(to);
        EXPECT_FALSE(readRecord(with(record, from, to), parsed, error));
        EXPECT_FALSE(error.empty());
    }
}

TEST(RecordParser, NestingDepthIsBounded)
{
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson(std::string(300000, '['), doc, error));
    EXPECT_NE(error.find("nesting"), std::string::npos) << error;

    JsonValue at_limit;
    EXPECT_TRUE(parseJson(std::string(jsonMaxDepth, '[') +
                              std::string(jsonMaxDepth, ']'),
                          at_limit, error))
        << error;
    JsonValue past_limit;
    EXPECT_FALSE(parseJson(std::string(jsonMaxDepth + 1, '[') +
                               std::string(jsonMaxDepth + 1, ']'),
                           past_limit, error));

    // A journal line of brackets is quarantined like any other.
    const std::string journal =
        testing::TempDir() + "cpx_record_deep.jsonl";
    std::remove((journal + ".quarantine").c_str());
    {
        std::ofstream out(journal, std::ios::trunc);
        out << realRecord() << "\n"
            << std::string(300000, '[') << "\n";
    }
    JournalLoad load = loadJournal(journal);
    EXPECT_EQ(load.entries, 1u);
    EXPECT_EQ(load.quarantined, 1u);
    std::remove(journal.c_str());
    std::remove((journal + ".quarantine").c_str());
}

/**
 * Every corruption of @p base the corpus holds: each proper prefix
 * (a crash mid-append) and, at every position, each of a fixed set of
 * single-byte substitutions.
 */
void
forEachCorruption(const std::string &base,
                  const std::function<void(const std::string &)> &fn)
{
    for (std::size_t n = 1; n < base.size(); ++n)
        fn(base.substr(0, n));
    static const char substitutes[] = {'-', '0', '9', '.', '"', '['};
    for (std::size_t at = 0; at < base.size(); ++at) {
        for (char c : substitutes) {
            if (base[at] == c)
                continue;
            std::string line = base;
            line[at] = c;
            fn(line);
        }
    }
}

TEST(RecordCorpus, EveryCorruptionIsRejectedOrReadsBackExactly)
{
    const std::string journal =
        testing::TempDir() + "cpx_record_corpus.jsonl";
    std::remove((journal + ".quarantine").c_str());
    std::ofstream out(journal, std::ios::trunc);

    std::size_t lines = 0, rejected = 0, bad = 0;
    std::string example;
    forEachCorruption(realRecord(), [&](const std::string &line) {
        ++lines;
        out << line << "\n";
        SweepResult first, second;
        std::string error;
        if (!readRecord(line, first, error)) {
            ++rejected;
            if (error.empty()) {
                ++bad;
                example = "rejected without a reason: " + line;
            }
            return;
        }
        const std::string written = recordOf(first);
        if (!readRecord(written, second, error) ||
            recordOf(second) != written) {
            ++bad;
            example = "did not read back: " + line;
        }
    });
    out.close();
    EXPECT_EQ(bad, 0u) << example;
    // Both outcomes occur: substituted digits make valid records.
    EXPECT_GT(rejected, 0u);
    EXPECT_LT(rejected, lines);

    // The journal loader survives the whole corpus, keeping or
    // quarantining every line (and warning about each quarantined
    // one, which would only flood the test log).
    testing::internal::CaptureStderr();
    JournalLoad load = loadJournal(journal);
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(load.entries + load.quarantined, lines);
    EXPECT_EQ(load.quarantined, rejected);
    std::remove(journal.c_str());
    std::remove((journal + ".quarantine").c_str());
}

TEST(RecordJournal, RetiredFormatLineIsQuarantinedAndReRuns)
{
    // A complete journal line of the per-line format the record
    // replaced, for the point below.
    const std::string line =
        readFile(std::string(CPX_TEST_DATA_DIR) +
                 "/retired_record.jsonl");
    ASSERT_FALSE(line.empty());
    const std::string journal =
        testing::TempDir() + "cpx_record_retired.jsonl";
    const std::string quarantine = journal + ".quarantine";
    std::remove(quarantine.c_str());
    {
        std::ofstream out(journal, std::ios::trunc);
        out << line;
    }
    JournalLoad load = loadJournal(journal);
    EXPECT_EQ(load.entries, 0u);
    EXPECT_EQ(load.quarantined, 1u);
    EXPECT_EQ(readFile(quarantine), line);

    Options opts;
    opts.scale = 0.2;
    opts.procs = 4;
    opts.jobs = 1;
    opts.resumePath = journal;
    SweepRunner runner(opts);
    std::size_t h = runner.add(
        "migratory", makeParams(ProtocolConfig::pcw()), "retired");
    runner.runAll();
    EXPECT_EQ(runner.executedCount(), 1u);
    EXPECT_TRUE(runner[h].ok());
    EXPECT_EQ(runner[h].source, ResultSource::Executed);
    std::remove(journal.c_str());
    std::remove(quarantine.c_str());
}

} // anonymous namespace
} // namespace cpx
