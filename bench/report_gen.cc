#include "bench/report_gen.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "sim/logging.hh"

namespace cpx::bench
{

namespace
{

/** The five breakdown components, in paper bar order. */
struct Decomposition
{
    double busy = 0, read = 0, write = 0, acquire = 0, release = 0;

    double
    total() const
    {
        return busy + read + write + acquire + release;
    }
};

Decomposition
decompositionOf(const JsonValue &point)
{
    Decomposition d;
    if (!point.has("breakdown"))
        return d;
    const JsonValue &b = point.at("breakdown");
    d.busy = numberOr(b, "busy", 0);
    d.read = numberOr(b, "readStall", 0);
    d.write = numberOr(b, "writeStall", 0);
    d.acquire = numberOr(b, "acquireStall", 0);
    d.release = numberOr(b, "releaseStall", 0);
    return d;
}

/** Points that compare against the same BASIC bar. */
struct GroupKey
{
    std::string app, consistency, network;
    double procs = 0, scale = 0;

    bool
    operator==(const GroupKey &o) const
    {
        return app == o.app && consistency == o.consistency &&
               network == o.network && procs == o.procs &&
               scale == o.scale;
    }
};

GroupKey
keyOf(const JsonValue &point)
{
    GroupKey key;
    key.app = textOr(point, "app", "?");
    if (point.has("config")) {
        const JsonValue &cfg = point.at("config");
        key.consistency = textOr(cfg, "consistency", "?");
        key.network = textOr(cfg, "network", "?");
        key.procs = numberOr(cfg, "procs", 0);
        key.scale = numberOr(cfg, "scale", 0);
    }
    return key;
}

// --- section 1: execution-time decomposition ------------------------------

void
renderDecomposition(const std::vector<JsonValue> &points,
                    std::string &out)
{
    out += "## Execution time, normalized to BASIC = 100\n\n";

    // Group points in first-appearance order; a vector scan keeps
    // the grouping deterministic without ordering the key type.
    std::vector<std::pair<GroupKey, std::vector<const JsonValue *>>>
        groups;
    for (const JsonValue &p : points) {
        GroupKey key = keyOf(p);
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&key](const auto &g) {
            return g.first == key;
        });
        if (it == groups.end()) {
            groups.push_back({key, {}});
            it = groups.end() - 1;
        }
        it->second.push_back(&p);
    }

    bool rendered = false;
    for (const auto &[key, members] : groups) {
        // The normalization base: this group's BASIC point.
        const JsonValue *basic = nullptr;
        for (const JsonValue *p : members) {
            if (p->has("config") &&
                textOr(p->at("config"), "protocol", "") == "BASIC") {
                basic = p;
                break;
            }
        }
        if (!basic || members.size() < 2)
            continue;
        double base_total = decompositionOf(*basic).total();
        if (base_total <= 0)
            continue;
        rendered = true;

        append(out, "### %s — %s / %s / %.0f procs (scale %g)\n\n",
               key.app.c_str(), key.consistency.c_str(),
               key.network.c_str(), key.procs, key.scale);
        out += "| protocol | busy | read | write | acquire | "
               "release | total |\n";
        out += "|---|---:|---:|---:|---:|---:|---:|\n";
        for (const JsonValue *p : members) {
            Decomposition d = decompositionOf(*p);
            double f = 100.0 / base_total;
            append(out,
                   "| %s | %.1f | %.1f | %.1f | %.1f | %.1f "
                   "| %.1f |\n",
                   p->has("config")
                       ? textOr(p->at("config"), "protocol", "?")
                             .c_str()
                       : "?",
                   d.busy * f, d.read * f, d.write * f, d.acquire * f,
                   d.release * f, d.total() * f);
        }
        out += "\n";
    }
    if (!rendered)
        out += "(no group carries both a BASIC point and an "
               "extension point)\n\n";
}

std::string
describeShort(const JsonValue &point)
{
    std::string label = textOr(point, "tag", "");
    if (!label.empty())
        label += " ";
    label += textOr(point, "app", "?");
    if (point.has("config")) {
        label += " under " +
                 textOr(point.at("config"), "protocol", "?") + "/" +
                 textOr(point.at("config"), "network", "?");
    }
    return label;
}

// --- section 2: directory pressure ----------------------------------------

void
renderDirectoryPressure(const std::vector<JsonValue> &points,
                        std::string &out)
{
    out += "## Directory pressure (imprecise sharer sets)\n\n";

    // Only points carrying a non-full-map "directory" block are
    // interesting; full-map points can neither broadcast nor evict.
    bool rendered = false;
    for (const JsonValue &point : points) {
        if (!point.has("directory"))
            continue;
        const JsonValue &dir = point.at("directory");
        std::string rep = textOr(dir, "rep", "fullmap");
        if (rep == "fullmap")
            continue;
        if (!rendered) {
            out += "| point | rep | overflow broadcasts | "
                   "pointer evictions | inval msgs |\n";
            out += "|---|---|---:|---:|---:|\n";
            rendered = true;
        }
        double invals = 0;
        if (point.has("protocolEvents"))
            invals = numberOr(point.at("protocolEvents"),
                              "invalidationsSent", 0);
        append(out, "| %s | %s | %.0f | %.0f | %.0f |\n",
               describeShort(point).c_str(), rep.c_str(),
               numberOr(dir, "overflowBroadcasts", 0),
               numberOr(dir, "pointerEvictions", 0), invals);
    }
    if (rendered)
        out += "\n";
    else
        out += "(every point ran a full-map directory — nothing to "
               "overflow)\n\n";
}

// --- section 3: mesh link utilization -------------------------------------

/** The point's sampled series; empty if absent or malformed. */
MetricTimeSeries
seriesOf(const JsonValue &point)
{
    RunResult stats;
    std::string error;
    if (!readOptionalBlocks(point, stats, error))
        return {};
    return std::move(stats.timeseries);
}

void
renderLinkUtilization(const std::vector<JsonValue> &points,
                      std::size_t top_links, std::string &out)
{
    out += "## Mesh link utilization (peak vs mean)\n\n";

    bool rendered = false;
    for (const JsonValue &point : points) {
        const MetricTimeSeries ts = seriesOf(point);
        if (ts.empty())
            continue;

        // Mesh links register one flit column per link; links are
        // clocked at one flit per pclock, so delta-flits / interval
        // is the utilization of that window.
        struct Link
        {
            std::string name;   //!< "mesh.x0y0.east"
            double mean = 0;    //!< whole-run utilization
            double peak = 0;    //!< busiest full window
            double peakTick = 0;
            double waitTicks = 0;
        };
        std::vector<Link> links;
        double last_tick = ts.ticks.back();
        for (std::size_t col = 0; col < ts.names.size(); ++col) {
            const std::string &name = ts.names[col];
            constexpr const char suffix[] = ".flits";
            if (name.rfind("mesh.", 0) != 0 ||
                name.size() < sizeof(suffix) ||
                name.compare(name.size() - (sizeof(suffix) - 1),
                             sizeof(suffix) - 1, suffix) != 0)
                continue;
            Link link;
            link.name = name.substr(
                0, name.size() - (sizeof(suffix) - 1));
            double total = 0;
            for (std::size_t row = 0; row < ts.rows(); ++row) {
                double delta = ts.at(row, col);
                total += delta;
                // The last row usually covers a partial window;
                // normalizing it by the full interval can only
                // under-report, never inflate the peak.
                double util = delta / ts.interval;
                if (util > link.peak) {
                    link.peak = util;
                    link.peakTick = ts.ticks[row];
                }
            }
            link.mean = last_tick > 0 ? total / last_tick : 0;
            // The paired waitTicks column, if present, is the
            // queueing-delay signal for the same link.
            for (std::size_t w = 0; w < ts.names.size(); ++w) {
                if (ts.names[w] == link.name + ".waitTicks") {
                    for (std::size_t row = 0; row < ts.rows(); ++row)
                        link.waitTicks += ts.at(row, w);
                    break;
                }
            }
            if (total > 0)
                links.push_back(std::move(link));
        }
        if (links.empty())
            continue;
        rendered = true;

        std::sort(links.begin(), links.end(),
                  [](const Link &a, const Link &b) {
            if (a.peak != b.peak)
                return a.peak > b.peak;
            return a.name < b.name;  // deterministic tie-break
        });
        if (links.size() > top_links)
            links.resize(top_links);

        append(out, "### %s\n\n", describeShort(point).c_str());
        out += "| link | mean util | peak util | peak at tick | "
               "wait ticks |\n";
        out += "|---|---:|---:|---:|---:|\n";
        for (const Link &link : links) {
            append(out,
                   "| %s | %.1f%% | %.1f%% | %.0f | %.0f |\n",
                   link.name.c_str(), 100.0 * link.mean,
                   100.0 * link.peak, link.peakTick,
                   link.waitTicks);
        }
        out += "\n";
    }
    if (!rendered)
        out += "(no mesh point carries a timeseries block — run "
               "with --sample-interval=N on a mesh target)\n\n";
}

// --- section 4: causal stall attribution ----------------------------------

void
renderAttribution(const std::vector<JsonValue> &points,
                  std::string &out)
{
    out += "## Where the cycles went (causal stall attribution)\n\n";

    bool rendered = false;
    for (const JsonValue &point : points) {
        if (!point.has("attribution"))
            continue;
        const JsonValue &ar = point.at("attribution");
        if (ar.kind != JsonValue::Kind::Object ||
            !ar.has("classes") ||
            ar.at("classes").kind != JsonValue::Kind::Object)
            continue;
        const JsonValue &classes = ar.at("classes");
        if (classes.members.empty() && !ar.has("locks"))
            continue;
        rendered = true;

        append(out, "### %s\n\n", describeShort(point).c_str());
        out += "| class | count | latency | request | dirQueue | "
               "dirServ | fetch | fanout | ackColl | dataRet | "
               "fill |\n";
        out += "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:"
               "|---:|\n";
        for (const auto &[name, row] : classes.members) {
            if (row.kind != JsonValue::Kind::Object)
                continue;
            double lat = numberOr(row, "latency", 0);
            auto pct = [&](const char *key) {
                return lat > 0
                           ? 100.0 * numberOr(row, key, 0) / lat
                           : 0.0;
            };
            append(out,
                   "| %s | %.0f | %.0f | %.1f%% | %.1f%% | %.1f%% "
                   "| %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% "
                   "|\n",
                   name.c_str(), numberOr(row, "count", 0), lat,
                   pct("request"), pct("dirQueue"),
                   pct("dirService"), pct("ownerFetch"),
                   pct("invalFanout"), pct("ackCollect"),
                   pct("dataReturn"), pct("fill"));
        }
        out += "\n";
        if (ar.has("locks") &&
            ar.at("locks").kind == JsonValue::Kind::Object) {
            const JsonValue &locks = ar.at("locks");
            double lat = numberOr(locks, "latency", 0);
            double home_q = numberOr(locks, "homeQueue", 0);
            double count = numberOr(locks, "count", 0);
            if (count > 0) {
                append(out,
                       "Locks: %.0f acquires, %.0f ticks total; "
                       "%.1f%% queued at the lock home, %.1f%% "
                       "transfer.\n\n",
                       count, lat,
                       lat > 0 ? 100.0 * home_q / lat : 0.0,
                       lat > 0
                           ? 100.0 * (lat - home_q) / lat
                           : 0.0);
            }
        }
    }
    if (!rendered)
        out += "(no data: no point carries an attribution block — "
               "run with --attrib)\n\n";
}

// --- section 5: contention hot spots --------------------------------------

void
renderHotSpots(const std::vector<JsonValue> &points, std::string &out)
{
    out += "## Contention hot spots\n\n";

    bool rendered = false;
    for (const JsonValue &point : points) {
        if (!point.has("attribution"))
            continue;
        const JsonValue &ar = point.at("attribution");
        if (ar.kind != JsonValue::Kind::Object)
            continue;
        auto table = [&](const char *key, const char *what,
                         const char *unit) {
            if (!ar.has(key) ||
                ar.at(key).kind != JsonValue::Kind::Array ||
                ar.at(key).items.empty())
                return false;
            append(out, "%s at %s:\n\n", what,
                   describeShort(point).c_str());
            append(out,
                   "| addr | home | %s | total wait | mean | "
                   "p99 |\n",
                   unit);
            out += "|---|---:|---:|---:|---:|---:|\n";
            for (const JsonValue &row : ar.at(key).items) {
                double count = numberOr(row, "count", 0);
                double total = numberOr(row, "totalWait", 0);
                append(out,
                       "| 0x%llx | %.0f | %.0f | %.0f | %.1f | "
                       "%.1f |\n",
                       static_cast<unsigned long long>(
                           numberOr(row, "addr", 0)),
                       numberOr(row, "home", 0), count, total,
                       count > 0 ? total / count : 0.0,
                       numberOr(row, "p99Wait", 0));
            }
            out += "\n";
            return true;
        };
        bool blocks = table("hotBlocks", "Hot blocks", "requests");
        bool locks = table("hotLocks", "Hot locks", "grants");
        rendered = rendered || blocks || locks;
    }
    if (!rendered)
        out += "(no data: no point carries attribution hot-spot "
               "tables — run with --attrib)\n\n";
}

// --- section 6: phase anomalies -------------------------------------------

void
renderAnomalies(const std::vector<JsonValue> &points,
                std::size_t top_n, std::string &out)
{
    out += "## Phase anomalies (interval deviates >2σ from "
           "run mean)\n\n";

    struct Anomaly
    {
        double score = 0;       //!< |delta - mean| / sigma
        std::size_t point = 0;  //!< point index (tie-break)
        std::string metric;
        double tick = 0;
        double delta = 0;
        double mean = 0;
        std::string label;
    };
    std::vector<Anomaly> anomalies;

    for (std::size_t pi = 0; pi < points.size(); ++pi) {
        const MetricTimeSeries ts = seriesOf(points[pi]);
        std::size_t rows = ts.rows();
        // With fewer than four windows a "deviation from the run
        // mean" is noise, not phase behavior.
        if (rows < 4)
            continue;
        for (std::size_t col = 0; col < ts.names.size(); ++col) {
            double sum = 0, sq = 0;
            for (std::size_t row = 0; row < rows; ++row) {
                double v = ts.at(row, col);
                sum += v;
                sq += v * v;
            }
            double mean = sum / rows;
            double variance = sq / rows - mean * mean;
            if (variance <= 0)
                continue;
            double sigma = std::sqrt(variance);
            for (std::size_t row = 0; row < rows; ++row) {
                double v = ts.at(row, col);
                double score = std::fabs(v - mean) / sigma;
                if (score <= 2.0)
                    continue;
                Anomaly a;
                a.score = score;
                a.point = pi;
                a.metric = ts.names[col];
                a.tick = ts.ticks[row];
                a.delta = v;
                a.mean = mean;
                a.label = describeShort(points[pi]);
                anomalies.push_back(std::move(a));
            }
        }
    }

    std::sort(anomalies.begin(), anomalies.end(),
              [](const Anomaly &a, const Anomaly &b) {
        if (a.score != b.score)
            return a.score > b.score;
        if (a.point != b.point)
            return a.point < b.point;
        if (a.metric != b.metric)
            return a.metric < b.metric;
        return a.tick < b.tick;
    });
    if (anomalies.size() > top_n)
        anomalies.resize(top_n);

    if (anomalies.empty()) {
        out += "(none: no sampled metric left its ±2σ "
               "band, or no point was sampled)\n\n";
        return;
    }
    out += "| σ | point | metric | interval end | delta | "
           "run mean |\n";
    out += "|---:|---|---|---:|---:|---:|\n";
    for (const Anomaly &a : anomalies) {
        append(out,
               "| %.1f | %s | %s | %.0f | %.0f | %.1f |\n",
               a.score, a.label.c_str(), a.metric.c_str(), a.tick,
               a.delta, a.mean);
    }
    out += "\n";
}

} // anonymous namespace

bool
generateReport(const JsonValue &doc, const ReportOptions &opts,
               std::string &out, std::string &error)
{
    if (textOr(doc, "schema", "") != "cpx-sweep-1") {
        error = "missing cpx-sweep-1 schema marker";
        return false;
    }
    // Sparse inputs are not errors: a sweep where every point failed
    // (or that recorded no points at all) still yields a well-formed
    // report whose sections carry explicit "no data" notes, so CI
    // pipelines that chain cpxbench | cpxreport don't fall over on a
    // bad night's data. Only a structurally invalid document fails.
    //
    // Failed points (fault-isolated sweeps, DESIGN.md §14) carry a
    // status/error block instead of stats; report only on completed
    // points, and say how many were dropped. A missing "status"
    // member means "ok" (pre-§14 results files).
    std::vector<JsonValue> points;
    std::size_t skipped = 0;
    if (doc.has("points") &&
        doc.at("points").kind == JsonValue::Kind::Array) {
        for (const JsonValue &p : doc.at("points").items) {
            if (textOr(p, "status", "ok") == "ok")
                points.push_back(p);
            else
                ++skipped;
        }
    }

    out.clear();
    append(out, "# cpx sweep report\n\n");
    append(out, "- suite: %s\n",
           textOr(doc, "suite", "?").c_str());
    append(out, "- points: %zu\n", points.size());
    if (skipped > 0)
        append(out, "- skipped: %zu failed point(s) excluded\n",
               skipped);
    append(out, "- scale: %g, procs: %.0f\n",
           numberOr(doc, "scale", 0), numberOr(doc, "procs", 0));
    if (points.empty())
        out += "- note: no usable sweep points — every section "
               "below reports no data\n";
    append(out, "\n");

    renderDecomposition(points, out);
    renderDirectoryPressure(points, out);
    renderLinkUtilization(points, opts.topLinks, out);
    renderAttribution(points, out);
    renderHotSpots(points, out);
    renderAnomalies(points, opts.topAnomalies, out);
    return true;
}

bool
generateReportFile(const std::string &json_path,
                   const ReportOptions &opts,
                   const std::string &out_path, std::string &error)
{
    JsonValue doc;
    if (!loadJsonFile(json_path, doc, error))
        return false;

    std::string report;
    if (!generateReport(doc, opts, report, error)) {
        error = json_path + ": " + error;
        return false;
    }

    if (out_path.empty()) {
        std::fputs(report.c_str(), stdout);
        return true;
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
        error = "cannot write '" + out_path + "'";
        return false;
    }
    out << report;
    if (!out.flush()) {
        error = "short write to '" + out_path + "'";
        return false;
    }
    return true;
}

} // namespace cpx::bench
