/**
 * @file
 * Measurement plumbing for the repository benchmark (rps_bench): clocks,
 * exact quantiles, process counters (peak RSS, /proc/self/io), the
 * in-memory span tracer, and the metric report whose last line is the
 * one-object JSON result.
 *
 * Nothing here calls into the library; rps_bench wraps library calls
 * in spans from the outside, so tracing adds no code under src/.
 */

#ifndef PERFBENCH_SUPPORT_HH
#define PERFBENCH_SUPPORT_HH

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds since an arbitrary fixed origin (steady clock). */
inline double
nowS()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/** Exact linear-interpolated quantile of @p v (copied and sorted). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Peak resident set of this process so far, MiB. */
inline double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Bytes this process has read through read(2)-family calls
 * (/proc/self/io rchar); 0 when the file is unavailable. */
inline uint64_t
procReadBytes()
{
    std::ifstream in("/proc/self/io");
    std::string key;
    uint64_t value = 0;
    while (in >> key >> value) {
        if (key == "rchar:")
            return value;
    }
    return 0;
}

/** Shortest round-trip decimal form of @p v (all its digits). */
inline std::string
fmtNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

/** JSON string literal (names and units here are plain ASCII). */
inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/**
 * One recorded span: a named interval with its parent span and the
 * request it belongs to (-1 when it serves no single request).
 */
struct Span
{
    const char *name = "";
    double startS = 0.0;
    double endS = 0.0;
    int parent = -1;
    int64_t request = -1;
};

/**
 * In-memory span recorder. Disabled tracers record nothing (begin()
 * returns -1), so untraced runs pay one branch per boundary. Spans
 * stay in memory and are written once, at exit.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(1 << 18);
    }

    int
    begin(const char *name, int64_t request = -1, int parent = -1)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.request = request;
        s.parent = parent;
        s.startS = nowS();
        spans_.push_back(s);
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[static_cast<size_t>(id)].endS = nowS();
    }

    /** Durations (microseconds) of every span named @p name. */
    std::vector<double>
    durationsUs(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (name == s.name)
                out.push_back((s.endS - s.startS) * 1e6);
        }
        return out;
    }

    /** Write one JSON object per span to @p path (id, name, start and
     * end in microseconds from the first span, parent, request). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        double t0 = spans_.empty() ? 0.0 : spans_.front().startS;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"id\":" << i << ",\"name\":" << jsonString(s.name)
                << ",\"start_us\":" << fmtNumber((s.startS - t0) * 1e6)
                << ",\"end_us\":" << fmtNumber((s.endS - t0) * 1e6)
                << ",\"parent\":" << s.parent
                << ",\"request\":" << s.request << "}\n";
        }
        return static_cast<bool>(out);
    }

    size_t size() const { return spans_.size(); }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span over one scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name, int64_t request = -1,
               int parent = -1)
        : t_(t), id_(t.begin(name, request, parent))
    {
    }
    ~ScopedSpan() { t_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/**
 * The run's metrics and counters. Human-readable lines go to stdout
 * as metrics are added; finish() prints the one-line JSON result last.
 */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit,
           uint64_t samples)
    {
        entries_.push_back({name, value, unit});
        std::printf("metric %-40s %16.6g %-6s (n=%llu)\n", name.c_str(),
                    value, unit.c_str(),
                    static_cast<unsigned long long>(samples));
    }

    /** A value printed for the reader but kept out of the JSON. */
    void
    info(const std::string &name, double value, const std::string &unit,
         uint64_t samples)
    {
        std::printf("info   %-40s %16.6g %-6s (n=%llu)\n", name.c_str(),
                    value, unit.c_str(),
                    static_cast<unsigned long long>(samples));
    }

    /** Record a failed correctness check (the run reports
     * correct=false). */
    void
    fail(const std::string &why)
    {
        std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
        std::printf("check FAILED: %s\n", why.c_str());
        correct_ = false;
    }

    bool correct() const { return correct_; }

    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    finish() const
    {
        std::fflush(stdout);
        std::ostringstream js;
        js << "{\"correct\": " << (correct_ ? "true" : "false")
           << ", \"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"metrics\": {";
        for (size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            js << (i ? ", " : "") << jsonString(e.name)
               << ": {\"value\": " << fmtNumber(e.value)
               << ", \"unit\": " << jsonString(e.unit) << "}";
        }
        js << "}}";
        std::printf("%s\n", js.str().c_str());
        std::fflush(stdout);
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
    bool correct_ = true;
};

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_HH
