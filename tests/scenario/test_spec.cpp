/**
 * @file
 * ScenarioSpec front-door tests: valid scenarios round-trip into the
 * expected spec, every class of invalid input produces an
 * expected-style error naming the offending JSON field path (never a
 * crash or a silent default), including for a spec built in code
 * and handed to validateSpec directly.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/compile.hpp"
#include "scenario/spec.hpp"

namespace quetzal {
namespace scenario {
namespace {

ScenarioSpec
parseOk(const std::string &text)
{
    const Expected<ScenarioSpec> result = parseScenarioText(text);
    EXPECT_TRUE(result.ok());
    for (const SpecError &error : result.errors)
        ADD_FAILURE() << error.describe();
    return result.value.value_or(ScenarioSpec{});
}

/** All error paths of an expected-invalid parse. */
std::vector<std::string>
errorPaths(const std::string &text)
{
    const Expected<ScenarioSpec> result = parseScenarioText(text);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.value.has_value());
    std::vector<std::string> paths;
    paths.reserve(result.errors.size());
    for (const SpecError &error : result.errors)
        paths.push_back(error.path);
    return paths;
}

bool
contains(const std::vector<std::string> &paths, const std::string &p)
{
    return std::find(paths.begin(), paths.end(), p) != paths.end();
}

const char kMinimal[] = R"({
  "name": "minimal",
  "populations": [{"name": "QZ", "controller": "QZ"}]
})";

TEST(ScenarioSpecParse, MinimalScenarioRoundTrips)
{
    const ScenarioSpec spec = parseOk(kMinimal);
    EXPECT_EQ(spec.name, "minimal");
    EXPECT_EQ(spec.schemaVersion, 1);
    ASSERT_EQ(spec.populations.size(), 1u);
    EXPECT_EQ(spec.populations[0].name, "QZ");
    ASSERT_EQ(spec.populations[0].overrides.size(), 1u);
    EXPECT_EQ(spec.populations[0].overrides[0].field, "controller");
    EXPECT_TRUE(spec.axes.empty());
    EXPECT_FALSE(spec.report.enabled);
}

TEST(ScenarioSpecParse, FullScenarioRoundTrips)
{
    const ScenarioSpec spec = parseOk(R"json({
      "schema_version": 1,
      "name": "full",
      "description": "d",
      "defaults": {"events": 500, "seed": 7, "buffer": 12},
      "populations": [
        {"name": "A", "controller": "QZ",
         "pid": {"kp": 1e-5, "ki": 2e-6}},
        {"name": "B", "controller": "NA", "use_pid": false}
      ],
      "sweep": {
        "mode": "zip",
        "axes": [
          {"field": "environment", "values": ["crowded", "msp430"]},
          {"field": "cells", "values": [4, 8]}
        ]
      },
      "max_runs": 100,
      "output": {"summary": true, "rollup": true,
                 "csv": "-",
                 "trace": {"path": "t.jsonl", "level": "counters"}},
      "report": {
        "banner": "b",
        "table": ["A", "B"],
        "lines": [{
          "format": "A vs B: %.1fx (%.0f%%)",
          "values": [
            {"metric": "discard_ratio", "subject": "A",
             "baseline": "B"},
            {"metric": "hq_share_pct", "subject": "A"}
          ]
        }]
      }
    })json");
    EXPECT_EQ(spec.defaults.size(), 3u);
    EXPECT_EQ(spec.mode, SweepMode::Zip);
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[1].field, "cells");
    EXPECT_EQ(spec.maxRuns, 100u);
    EXPECT_TRUE(spec.output.summary);
    EXPECT_TRUE(spec.output.rollup);
    EXPECT_EQ(spec.output.csvPath, "-");
    ASSERT_TRUE(spec.output.trace.has_value());
    EXPECT_EQ(spec.output.trace->level, obs::ObsLevel::Counters);
    ASSERT_TRUE(spec.report.enabled);
    ASSERT_EQ(spec.report.lines.size(), 1u);
    EXPECT_EQ(spec.report.lines[0].terms.size(), 2u);
}

TEST(ScenarioSpecParse, SeedRangeExpands)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "seeds",
      "populations": [{"name": "QZ", "controller": "QZ"}],
      "sweep": {"axes": [
        {"field": "seed", "range": {"from": 10, "count": 5}}]}
    })");
    ASSERT_EQ(spec.axes.size(), 1u);
    ASSERT_EQ(spec.axes[0].values.size(), 5u);
    EXPECT_EQ(spec.axes[0].values.front().asUint64(), 10u);
    EXPECT_EQ(spec.axes[0].values.back().asUint64(), 14u);
}

TEST(ScenarioSpecParse, RejectsUnknownTopLevelKey)
{
    const auto paths = errorPaths(R"({
      "name": "x", "frobnicate": 1,
      "populations": [{"name": "QZ"}]
    })");
    EXPECT_TRUE(contains(paths, "frobnicate"));
}

TEST(ScenarioSpecParse, RejectsUnknownFieldWithPath)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "defaults": {"warp_factor": 9},
      "populations": [{"name": "QZ", "frobnicate": 1}]
    })");
    EXPECT_TRUE(contains(paths, "defaults.warp_factor"));
    EXPECT_TRUE(contains(paths, "populations[0].frobnicate"));
}

TEST(ScenarioSpecParse, EngineIsAnUnknownExperimentField)
{
    // The simulator has one stepper, so there is no "engine" knob in
    // the defaults, in a population, or as a sweep axis.
    const Expected<ScenarioSpec> result = parseScenarioText(R"({
      "name": "x",
      "defaults": {"engine": "event"},
      "populations": [{"name": "QZ", "engine": "tick"}],
      "sweep": {"axes": [{"field": "engine", "values": ["tick"]}]}
    })");
    ASSERT_FALSE(result.ok());
    std::vector<std::string> paths;
    for (const SpecError &error : result.errors) {
        paths.push_back(error.path);
        EXPECT_NE(error.describe().find("unknown experiment field"),
                  std::string::npos)
            << error.describe();
    }
    EXPECT_TRUE(contains(paths, "defaults.engine"));
    EXPECT_TRUE(contains(paths, "populations[0].engine"));
    EXPECT_TRUE(contains(paths, "sweep.axes[0].field"));
}

TEST(ScenarioSpecParse, BadEnumDiagnosticListsAllowedValues)
{
    const Expected<ScenarioSpec> result = parseScenarioText(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "WARP"}]
    })");
    ASSERT_FALSE(result.ok());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].path, "populations[0].controller");
    // The message names the legal spellings.
    EXPECT_NE(result.errors[0].message.find("QZ-AvgSe2e"),
              std::string::npos);
    EXPECT_NE(result.errors[0].message.find("Ideal"),
              std::string::npos);
}

TEST(ScenarioSpecParse, ControllerFieldAcceptsEveryKindName)
{
    // The field's names are controllerKindName's, kind for kind.
    for (int k = 0; k <= static_cast<int>(sim::ControllerKind::Ideal);
         ++k) {
        const auto kind = static_cast<sim::ControllerKind>(k);
        const json::Value name =
            json::makeString(sim::controllerKindName(kind));
        std::string why;
        ASSERT_TRUE(fields::validateField("controller", name, why))
            << name.text << ": " << why;
        sim::ExperimentConfig config;
        fields::applyField("controller", name, config);
        EXPECT_EQ(config.controller, kind) << name.text;
    }
}

TEST(ScenarioSpecParse, OutOfRangeValuesNameTheirPath)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [
        {"name": "A", "controller": "QZ", "buffer": 0,
         "buffer_threshold": 1.5}],
      "sweep": {"axes": [{"field": "cells", "values": [4, 65]}]}
    })");
    EXPECT_TRUE(contains(paths, "populations[0].buffer"));
    EXPECT_TRUE(contains(paths, "populations[0].buffer_threshold"));
    EXPECT_TRUE(contains(paths, "sweep.axes[0].values[1]"));
}

TEST(ScenarioSpecParse, RejectsDuplicateAndEmptyPopulations)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [
        {"name": "A", "controller": "QZ"},
        {"name": "A", "controller": "NA"}]
    })");
    EXPECT_TRUE(contains(paths, "populations[1].name"));

    const auto empty = errorPaths(R"({"name": "x", "populations": []})");
    EXPECT_TRUE(contains(empty, "populations"));

    // A duplicated axis is named at the second copy, alongside an
    // unrelated bad value elsewhere in the same file.
    const auto axes = errorPaths(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "WARP"}],
      "sweep": {"axes": [
        {"field": "environment", "values": ["crowded"]},
        {"field": "environment", "values": ["msp430"]}]}
    })");
    EXPECT_TRUE(contains(axes, "populations[0].controller"));
    EXPECT_TRUE(contains(axes, "sweep.axes[1].field"));
}

TEST(ScenarioSpecParse, BufferThresholdZeroIsRejected)
{
    // BufferThresholdPolicy needs a fraction in (0, 1]; a spec that
    // validates must not die at run time, so 0 fails validation.
    ScenarioSpec spec;
    spec.name = "x";
    spec.populations.push_back(
        {"A",
         {{"controller", json::makeString("THR"),
           "populations[0].controller"},
          {"buffer_threshold", json::makeNumber(0.0),
           "populations[0].buffer_threshold"}},
         "populations[0]"});
    const std::vector<SpecError> errors = validateSpec(spec);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].path, "populations[0].buffer_threshold");
    EXPECT_NE(errors[0].message.find("(0, 1]"), std::string::npos);

    spec.populations[0].overrides[1].value = json::makeNumber(0.3);
    EXPECT_TRUE(validateSpec(spec).empty());
}

/**
 * One value at the edge of a field's range. quetzal-sim's experiment
 * flags (--buffer, --cells, --threshold, --env, ...) take exactly what
 * validateField takes, so these edges are the CLI's edges too.
 */
struct FieldEdge
{
    const char *name;   ///< test-name suffix
    const char *field;
    json::Value value;
    bool accepted;
    const char *expects;  ///< fragment of `why` when rejected
};

/** Print the case by name, not as raw bytes holding pointers. */
void
PrintTo(const FieldEdge &edge, std::ostream *os)
{
    *os << edge.name;
}

json::Value
count(std::uint64_t n)
{
    return json::makeNumber(n);
}

class FieldEdgeTest : public ::testing::TestWithParam<FieldEdge>
{
};

TEST_P(FieldEdgeTest, ValidateFieldHonoursTheRange)
{
    const FieldEdge &edge = GetParam();
    std::string why;
    const bool ok = fields::validateField(edge.field, edge.value, why);
    if (edge.accepted) {
        EXPECT_TRUE(ok) << edge.field << " = " << edge.value.text
                        << ": " << why;
        sim::ExperimentConfig config;
        fields::applyField(edge.field, edge.value, config);
    } else {
        EXPECT_FALSE(ok) << edge.field << " = " << edge.value.text;
        EXPECT_NE(why.find(edge.expects), std::string::npos)
            << edge.field << ": " << why;
    }
}

INSTANTIATE_TEST_SUITE_P(
    CliFlagFields, FieldEdgeTest,
    ::testing::Values(
        FieldEdge{"BufferZero", "buffer", count(0), false,
                  "[1, 1000000]"},
        FieldEdge{"BufferOne", "buffer", count(1), true, ""},
        FieldEdge{"BufferAboveMax", "buffer", count(1000001),
                  false, "[1, 1000000]"},
        FieldEdge{"CellsZero", "cells", count(0), false,
                  "[1, 64]"},
        FieldEdge{"CellsMax", "cells", count(64), true, ""},
        FieldEdge{"CellsAboveMax", "cells", count(65), false,
                  "[1, 64]"},
        FieldEdge{"CellsFractional", "cells", json::makeNumber(4.5),
                  false, "[1, 64]"},
        FieldEdge{"CapturePeriodZero", "capture_period_ms",
                  count(0), false, "[1, 10000000]"},
        FieldEdge{"CapturePeriodOne", "capture_period_ms",
                  count(1), true, ""},
        FieldEdge{"TaskWindowZero", "task_window", count(0),
                  false, "[1, 4096]"},
        FieldEdge{"TaskWindowAboveMax", "task_window",
                  count(4097), false, "[1, 4096]"},
        FieldEdge{"ArrivalWindowZero", "arrival_window",
                  count(0), false, "[1, 65536]"},
        FieldEdge{"ArrivalWindowMax", "arrival_window",
                  count(65536), true, ""},
        FieldEdge{"EventsZero", "events", count(0), false,
                  "[1, 10000000]"},
        FieldEdge{"EventsMax", "events", count(10000000),
                  true, ""},
        FieldEdge{"EventsAboveMax", "events",
                  count(10000001), false, "[1, 10000000]"},
        FieldEdge{"ThresholdZero", "buffer_threshold",
                  json::makeNumber(0.0), false, "(0, 1]"},
        FieldEdge{"ThresholdOne", "buffer_threshold",
                  json::makeNumber(1.0), true, ""},
        FieldEdge{"ThresholdAboveOne", "buffer_threshold",
                  json::makeNumber(1.01), false, "(0, 1]"},
        FieldEdge{"UnknownEnvironment", "environment",
                  json::makeString("mars"), false, "\"less-crowded\""},
        FieldEdge{"UnknownController", "controller",
                  json::makeString("WARP"), false, "\"QZ\""},
        FieldEdge{"UnknownDevice", "device", json::makeString("toaster"),
                  false, "\"msp430\""},
        FieldEdge{"UnknownPolicy", "policy", json::makeString("fifo9"),
                  false, "registered policy"},
        FieldEdge{"PidAsString", "use_pid", json::makeString("false"),
                  false, "a boolean"},
        FieldEdge{"CircuitOff", "use_circuit", json::makeBool(false),
                  true, ""}),
    [](const ::testing::TestParamInfo<FieldEdge> &info) {
        return std::string(info.param.name);
    });

TEST(ScenarioSpecParse, RejectsAxisShadowedByPopulationOverride)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [
        {"name": "A", "controller": "QZ", "environment": "crowded"}],
      "sweep": {"axes": [
        {"field": "environment", "values": ["crowded", "msp430"]}]}
    })");
    EXPECT_TRUE(contains(paths, "populations[0].environment"));
}

TEST(ScenarioSpecParse, RejectsZipLengthMismatch)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"}],
      "sweep": {"mode": "zip", "axes": [
        {"field": "environment", "values": ["crowded", "msp430"]},
        {"field": "cells", "values": [4]}]}
    })");
    EXPECT_TRUE(contains(paths, "sweep.axes"));
}

TEST(ScenarioSpecParse, EnforcesCrossProductRunLimit)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "max_runs": 10,
      "populations": [{"name": "A", "controller": "QZ"}],
      "sweep": {"axes": [
        {"field": "seed", "range": {"from": 1, "count": 4}},
        {"field": "cells", "values": [2, 4, 6]}]}
    })");
    EXPECT_TRUE(contains(paths, "sweep"));
}

TEST(ScenarioSpecParse, TraceFormatAcceptsBtraceRejectsUnknown)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "t",
      "populations": [{"name": "QZ", "controller": "QZ"}],
      "output": {"trace": {"path": "-", "format": "btrace"}}
    })");
    ASSERT_TRUE(spec.output.trace.has_value());
    EXPECT_EQ(spec.output.trace->format, "btrace");

    const std::vector<std::string> paths = errorPaths(R"({
      "name": "t",
      "populations": [{"name": "QZ", "controller": "QZ"}],
      "output": {"trace": {"path": "-", "format": "protobuf"}}
    })");
    EXPECT_TRUE(contains(paths, "output.trace.format"));
}

TEST(ScenarioSpecParse, RejectsUnknownSchemaVersion)
{
    const auto paths = errorPaths(R"({
      "schema_version": 2,
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"}]
    })");
    EXPECT_TRUE(contains(paths, "schema_version"));
}

TEST(ScenarioSpecParse, RejectsBadReportReferencesAndFormats)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"},
                      {"name": "B", "controller": "NA"}],
      "report": {
        "banner": "b",
        "table": ["A", "C"],
        "lines": [
          {"format": "only %s strings",
           "values": [{"metric": "hq_share_pct", "subject": "A"}]},
          {"format": "%.1f and %.1f",
           "values": [{"metric": "discard_ratio", "subject": "A",
                       "baseline": "B"}]},
          {"format": "%.1f",
           "values": [{"metric": "warp_speed", "subject": "A"}]},
          {"format": "%.1f",
           "values": [{"metric": "discard_ratio", "subject": "A"}]}
        ]
      }
    })");
    EXPECT_TRUE(contains(paths, "report.table[1]"));
    EXPECT_TRUE(contains(paths, "report.lines[0].format"));
    EXPECT_TRUE(contains(paths, "report.lines[1].format"));
    EXPECT_TRUE(
        contains(paths, "report.lines[2].values[0].metric"));
    EXPECT_TRUE(contains(paths, "report.lines[3].values[0]"));
}

TEST(ScenarioSpecParse, JsonSyntaxErrorsAreSpecErrors)
{
    const Expected<ScenarioSpec> result =
        parseScenarioText("{\"name\": oops}");
    ASSERT_FALSE(result.ok());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].message.find("JSON parse error"),
              std::string::npos);
    EXPECT_NE(result.errors[0].message.find("line 1"),
              std::string::npos);
}

TEST(ScenarioSpecParse, MissingFileIsAnError)
{
    const Expected<ScenarioSpec> result =
        loadScenarioFile("/nonexistent/scenario.json");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errors[0].message.find("cannot open"),
              std::string::npos);
}

TEST(ScenarioCompile, AppliesDefaultsAxisThenPopulation)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "x",
      "defaults": {"events": 500, "buffer": 12},
      "populations": [
        {"name": "A", "controller": "NA"},
        {"name": "B", "controller": "QZ", "buffer": 3}],
      "sweep": {"axes": [
        {"field": "environment",
         "values": ["crowded", "less-crowded"]},
        {"field": "cells", "values": [4, 8]}]}
    })");
    const Expected<ScenarioPlan> compiled = compileScenario(spec);
    ASSERT_TRUE(compiled.ok());
    const ScenarioPlan &plan = *compiled.value;

    // Cross product, first axis outermost, populations inner.
    ASSERT_EQ(plan.cells.size(), 4u);
    ASSERT_EQ(plan.runs.size(), 8u);
    EXPECT_EQ(plan.cells[0].label, "environment: Crowded, cells: 4");
    EXPECT_EQ(plan.cells[1].label, "environment: Crowded, cells: 8");
    EXPECT_EQ(plan.cells[2].label,
              "environment: LessCrowded, cells: 4");

    const sim::ExperimentConfig &a0 = plan.runs[0].config;
    EXPECT_EQ(a0.eventCount, 500u);
    EXPECT_EQ(a0.sim.bufferCapacity, 12u);
    EXPECT_EQ(a0.harvesterCells, 4);
    EXPECT_EQ(a0.controller, sim::ControllerKind::NoAdapt);
    EXPECT_EQ(a0.environment, trace::EnvironmentPreset::Crowded);

    // Population override beats the default.
    const sim::ExperimentConfig &b0 = plan.runs[1].config;
    EXPECT_EQ(b0.sim.bufferCapacity, 3u);
    EXPECT_EQ(b0.controller, sim::ControllerKind::Quetzal);

    // Last cell: both axes advanced.
    const sim::ExperimentConfig &a3 = plan.runs[6].config;
    EXPECT_EQ(a3.environment, trace::EnvironmentPreset::LessCrowded);
    EXPECT_EQ(a3.harvesterCells, 8);
}

TEST(ScenarioCompile, ZipAdvancesAxesTogether)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"}],
      "sweep": {"mode": "zip", "axes": [
        {"field": "environment", "values": ["crowded", "msp430"]},
        {"field": "cells", "values": [4, 8]}]}
    })");
    const Expected<ScenarioPlan> compiled = compileScenario(spec);
    ASSERT_TRUE(compiled.ok());
    ASSERT_EQ(compiled.value->runs.size(), 2u);
    EXPECT_EQ(compiled.value->runs[0].config.harvesterCells, 4);
    EXPECT_EQ(compiled.value->runs[1].config.harvesterCells, 8);
    EXPECT_EQ(compiled.value->runs[1].config.environment,
              trace::EnvironmentPreset::Msp430Short);
}

TEST(ScenarioCompile, EventCountOverrideAppliesToEveryRun)
{
    const ScenarioSpec spec = parseOk(kMinimal);
    CompileOptions options;
    options.eventCountOverride = 17;
    const Expected<ScenarioPlan> compiled =
        compileScenario(spec, options);
    ASSERT_TRUE(compiled.ok());
    EXPECT_EQ(compiled.value->runs[0].config.eventCount, 17u);
}

TEST(ScenarioCompile, PidGainsReachTheConfig)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ",
                       "pid": {"kp": 1e-5, "kd": 2.0}}]
    })");
    const Expected<ScenarioPlan> compiled = compileScenario(spec);
    ASSERT_TRUE(compiled.ok());
    const core::PidConfig &pid = compiled.value->runs[0].config.pid;
    EXPECT_DOUBLE_EQ(pid.kp, 1e-5);
    EXPECT_DOUBLE_EQ(pid.kd, 2.0);
    EXPECT_DOUBLE_EQ(pid.ki, core::PidConfig{}.ki); // untouched
}

TEST(ScenarioCompile, InvalidSpecReportsInsteadOfCrashing)
{
    ScenarioSpec spec; // no populations
    const Expected<ScenarioPlan> compiled = compileScenario(spec);
    EXPECT_FALSE(compiled.ok());
    EXPECT_FALSE(compiled.errors.empty());
}

} // namespace
} // namespace scenario
} // namespace quetzal
