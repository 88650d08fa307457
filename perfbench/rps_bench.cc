/**
 * @file
 * rps_bench, the repository benchmark: four RPS workloads, each run in
 * its own process, measured end to end (untraced) or layer by layer
 * (traced).
 *
 *   rps_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-dir <dir>] [--work-dir <dir>]
 *
 * Workloads (see BENCHMARK.json for why each was chosen):
 *   rps_interactive    open loop, Poisson arrivals at fixed absolute
 *                      rates (a nominal rate plus a short ladder),
 *                      1-image requests, preact_mini width 16 on 8x8
 *                      inputs, uniform rps4to16 draw, short age close.
 *   rps_bulk           closed loop, one client keeping 16-image
 *                      requests outstanding against the servable
 *                      ResNet-18 stand-in at 32x32, 32-row batches.
 *   rps_stream_budget  cold start of the servable ResNet-50 stand-in
 *                      through Session::fromCheckpoint with a streamed
 *                      artifact and a cache budget of ~40% of the full
 *                      cache, then open-loop traffic at a fixed rate.
 *   rps_adv            RPS PGD-7 adversarial training for a fixed
 *                      number of steps, then RPS PGD-20 evaluation.
 *
 * End-to-end metrics (untraced run; every workload prints all five):
 *   setup_s      median over several set-ups of the time from workload
 *                start to the first verified reply (serving) or the
 *                first training step (rps_adv).
 *   p50_ms/p99_ms  latency of one operation: a request at the nominal
 *                rate timed from its due time (open loop), a request
 *                timed from its send (closed loop), or one training
 *                step (rps_adv).
 *   rows_per_s   images completed per second (training examples per
 *                second on rps_adv).
 *   peak_rss_mb  peak resident set of the workload process.
 * Workload-specific figures (max_rate_rps, failed_frac,
 * attack_examples_s, robust_acc, generator lateness) print as "info"
 * lines beside them.
 *
 * The traced run (--trace 1) repeats the measured phase untraced and
 * traced, reports the difference as trace.overhead_pct, and probes each
 * src/ module through its public calls, wrapped in spans recorded here.
 * A module the workload's own traffic bypasses is probed directly on
 * the workload's model (io: save + streamed load; nn: one training
 * batch; serve on rps_adv: the trained model behind a Server); the
 * kernel probes use fixed shapes on every workload. The engine counters
 * cover the traffic phase only, so evictions and hydrations read 0
 * outside rps_stream_budget.
 *
 * Thread budget: the library pool (whose calling thread is the
 * serve::Server dispatcher) gets nproc - 1 threads and the load
 * generator the remaining one; rps_adv, which has no generator, uses
 * nproc.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "accel/accelerator.hh"
#include "adversarial/evaluation.hh"
#include "adversarial/pgd.hh"
#include "adversarial/trainer.hh"
#include "common/thread_pool.hh"
#include "data/synthetic.hh"
#include "io/checkpoint.hh"
#include "nn/loss.hh"
#include "nn/model_zoo.hh"
#include "nn/sgd.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "tensor/gemm.hh"
#include "workloads/model_library.hh"

#include "support.hh"

extern char **environ;

namespace {

using namespace twoinone;
using namespace perfbench;

// ---------------------------------------------------------------------
// Options and run context
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir = ".bench_build/traces";
    std::string workDir = ".bench_build/work";
    /** Child mode: write the rps_stream_budget artifact and exit. */
    std::string writeArtifact;
};

struct Ctx
{
    Options opt;
    Report report;
    Tracer tracer;
    int threads = 1;
    int nproc = 1;

    explicit Ctx(const Options &o) : opt(o), tracer(o.trace) {}
};

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Plan-step kinds reported as serve.step_us.<kind>. */
const char *const kStepKinds[] = {"conv",   "act_quant", "sbn_relu",
                                  "linear", "pool",      "add"};

const int kRooflineBits[] = {4, 8, 16};

/** rps_adv's per-image float conv GEMM shapes (preact_mini width 8 on
 * 8x8 inputs, 3x3 convs). */
const char *const kAdvShapes[] = {"m8n64k27", "m8n64k72", "m16n16k144",
                                  "m32n4k288"};

// ---------------------------------------------------------------------
// Plan-step accounting (labels come from ExecutionPlan::describe)
// ---------------------------------------------------------------------

/** Kind of a plan step from its label. */
std::string
stepKind(const std::string &label)
{
    auto starts = [&](const char *p) { return label.rfind(p, 0) == 0; };
    if (starts("conv"))
        return "conv";
    if (starts("actquant"))
        return "act_quant";
    if (starts("sbn") || starts("relu"))
        return "sbn_relu";
    if (starts("linear"))
        return "linear";
    if (starts("gap") || starts("avgpool") || starts("flatten"))
        return "pool";
    if (starts("residual"))
        return "add";
    return "other";
}

/** One conv step's per-image GEMM geometry. */
struct ConvGeom
{
    int cin = 0, cout = 0, kernel = 0, stride = 1, oh = 0, ow = 0;
    std::string shape() const
    {
        return "m" + std::to_string(cout) + "n" +
               std::to_string(oh * ow) + "k" +
               std::to_string(cin * kernel * kernel);
    }
    double macsPerImage() const
    {
        return static_cast<double>(cout) * cin * kernel * kernel * oh * ow;
    }
};

/** rps_bulk's conv layers, one per distinct per-image GEMM shape
 * (servable ResNet-18 stand-in, base width 16, 32x32 input):
 * {cin, cout, kernel, stride, oh, ow}. The kernel probes time these
 * shapes on every workload; rps_bulk checks them against its plan. */
const ConvGeom kBulkGeoms[] = {
    {3, 16, 3, 1, 32, 32},  {16, 16, 3, 1, 32, 32}, {16, 32, 1, 2, 16, 16},
    {16, 32, 3, 2, 16, 16}, {32, 32, 3, 1, 16, 16}, {32, 64, 1, 2, 8, 8},
    {32, 64, 3, 2, 8, 8},   {64, 64, 3, 1, 8, 8},   {64, 128, 1, 2, 4, 4},
    {64, 128, 3, 2, 4, 4},  {128, 128, 3, 1, 4, 4}};

/**
 * Conv geometries of a plan, in step order, from the step labels
 * ("conv[int] Conv2d(16->32, k=3, s=2, p=1)"). Spatial size follows
 * the residual skeleton of model_zoo / model_library: 3x3 convs carry
 * the feature map forward, and a 1x1 projection reads the same input
 * as the block's first 3x3 conv, so it leaves the tracked size alone.
 */
std::vector<ConvGeom>
convGeometry(const std::vector<std::pair<std::string, double>> &steps,
             int h, int w)
{
    std::vector<ConvGeom> out;
    for (const auto &s : steps) {
        if (stepKind(s.first) != "conv")
            continue;
        size_t at = s.first.find("Conv2d(");
        ConvGeom g;
        int pad = 0;
        if (at == std::string::npos ||
            std::sscanf(s.first.c_str() + at,
                        "Conv2d(%d->%d, k=%d, s=%d, p=%d)", &g.cin,
                        &g.cout, &g.kernel, &g.stride, &pad) != 5)
            continue;
        g.oh = (h + 2 * pad - g.kernel) / g.stride + 1;
        g.ow = (w + 2 * pad - g.kernel) / g.stride + 1;
        if (g.kernel > 1) {
            h = g.oh;
            w = g.ow;
        }
        out.push_back(g);
    }
    return out;
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

std::vector<Tensor>
makeRequests(uint64_t seed, int count, const std::vector<int> &shape)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
    std::vector<Tensor> pool;
    pool.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        pool.push_back(Tensor::uniform(shape, rng, 0.0f, 1.0f));
    return pool;
}

void
calibrate(Network &net, uint64_t seed, const std::vector<int> &shape)
{
    Rng rng(seed + 63);
    Calibrator cal(net);
    cal.calibrate({Tensor::uniform(shape, rng, 0.0f, 1.0f)});
}

bool
sameBits(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------
// Serving stack
// ---------------------------------------------------------------------

/** One workload's serving stack. Members are destroyed in reverse:
 * server (joins the dispatcher) before the session, engine, network. */
struct Stack
{
    std::unique_ptr<Network> net;
    std::unique_ptr<RpsEngine> engine;
    std::unique_ptr<Session> session;
    std::unique_ptr<serve::Server> server;
    serve::Server::TenantId tenant = 0;
    std::vector<int> imageShape; ///< [C, H, W]

    /** Tear down in dependency order (move assignment would free the
     * network before the server that still serves it). */
    void
    reset()
    {
        server.reset();
        session.reset();
        engine.reset();
        net.reset();
    }
};

/** A reply kept for bit-comparison against the reference forward. */
struct Sample
{
    size_t input = 0;
    int precision = 0;
    std::vector<float> logits;
};

/** Reference forward of @p x at @p bits through the session (the
 * server must be idle). */
Tensor
referenceAt(Session &s, int bits, const Tensor &x)
{
    s.switchPrecision(bits);
    return s.forwardQuantized(x);
}

/**
 * Bit-compare sampled replies against the session's quantized forward
 * at each reply's precision. Returns the number of mismatches. First
 * confirms that a row's logits do not depend on its batch-mates (the
 * property that makes a single-request replay a valid reference).
 */
uint64_t
verifySamples(Stack &st, const std::vector<Tensor> &inputs,
              const std::vector<Sample> &samples, Report &rep)
{
    Session &s = *st.session;
    const Tensor &x = inputs[0];
    int bits = s.candidates().bits().front();
    // Independence of batch-mates: a two-image batch against each
    // image alone.
    {
        Tensor pair({2, x.dim(1), x.dim(2), x.dim(3)});
        pair.setSlice0(0, x.slice0(0, 1));
        pair.setSlice0(1, inputs[1].slice0(0, 1));
        Tensor both = referenceAt(s, bits, pair);
        Tensor one = referenceAt(s, bits, x.slice0(0, 1));
        size_t cols = one.size();
        if (!sameBits(both.data(), one.data(), cols))
            rep.fail("logits of a row depend on its batch-mates; "
                     "single-request replay is not a valid reference");
    }
    std::map<int, std::vector<const Sample *>> by_bits;
    for (const Sample &smp : samples)
        by_bits[smp.precision].push_back(&smp);
    uint64_t wrong = 0;
    for (auto &kv : by_bits) {
        for (const Sample *smp : kv.second) {
            Tensor ref = referenceAt(s, kv.first, inputs[smp->input]);
            if (ref.size() != smp->logits.size() ||
                !sameBits(ref.data(), smp->logits.data(), ref.size()))
                ++wrong;
        }
    }
    return wrong;
}

/** Submit one request, wait, and bit-check it (set-up's "first
 * verified reply"). Returns false on a wrong or failed reply. */
bool
firstVerifiedReply(Stack &st, const Tensor &x)
{
    serve::Reply r;
    try {
        r = st.server->submit(st.tenant, x).get();
    } catch (const serve::ServeError &) {
        return false;
    }
    st.server->pause();
    bool ok = st.session->candidates().contains(r.precision);
    if (ok) {
        Tensor ref = referenceAt(*st.session, r.precision, x);
        ok = ref.size() == r.y.size() &&
             sameBits(ref.data(), r.y.data(), ref.size());
    }
    st.server->resume();
    return ok;
}

/** One measured traffic phase. */
struct Phase
{
    std::vector<double> latMs;     ///< client latency per ok request
    std::vector<double> lateMs;    ///< generator lateness per send
    std::vector<double> replyUs;   ///< Reply::latencyUs per ok request
    std::vector<double> submitUs;  ///< Server::submit call time
    std::vector<Sample> samples;
    uint64_t sent = 0, ok = 0, shed = 0, wrong = 0;
    uint64_t rows = 0;
    double wallS = 0.0;
    bool backlogGrew = false;
    std::set<int> precisions; ///< precisions seen in replies
};

struct Pending
{
    size_t input = 0;
    double dueS = 0.0;
    double sentS = 0.0;
    int span = -1;
    std::future<serve::Reply> fut;
};

/** Account one completed (or failed) request. */
void
complete(Pending &p, double done_s, const Stack &st, Phase &ph,
         Rng &sample_rng, double sample_p, size_t max_samples,
         Tracer &tracer)
{
    tracer.end(p.span);
    serve::Reply r;
    try {
        r = p.fut.get();
    } catch (const serve::ServeError &) {
        ++ph.shed;
        return;
    }
    if (!st.session->candidates().contains(r.precision)) {
        ++ph.wrong; // precision outside the draw set
        return;
    }
    ++ph.ok;
    ph.precisions.insert(r.precision);
    ph.rows += static_cast<uint64_t>(r.y.dim(0));
    ph.latMs.push_back((done_s - p.dueS) * 1e3);
    ph.replyUs.push_back(r.latencyUs);
    if (ph.samples.size() < max_samples && sample_rng.uniform() < sample_p)
        ph.samples.push_back(
            {p.input, r.precision,
             std::vector<float>(r.y.data(), r.y.data() + r.y.size())});
}

/** Send one request now; lateness is measured against @p due_s. */
Pending
send(Stack &st, const std::vector<Tensor> &inputs, size_t index,
     double due_s, Phase &ph, Tracer &tracer)
{
    Pending p;
    p.input = index % inputs.size();
    p.dueS = due_s;
    p.span = tracer.begin("client.request", static_cast<int64_t>(index));
    p.sentS = nowS();
    int sub = tracer.begin("serve.submit", static_cast<int64_t>(index),
                           p.span);
    try {
        p.fut = st.server->submit(st.tenant, inputs[p.input]);
    } catch (const serve::ServeError &) {
        // Rejected or shed at admission: completes immediately as a
        // failure through an already-failed future.
        std::promise<serve::Reply> failed;
        failed.set_exception(std::make_exception_ptr(
            serve::ServeError("refused at submit")));
        p.fut = failed.get_future();
    }
    double after = nowS();
    tracer.end(sub);
    ph.submitUs.push_back((after - p.sentS) * 1e6);
    ph.lateMs.push_back((p.sentS - due_s) * 1e3);
    ++ph.sent;
    return p;
}

/**
 * Open loop: Poisson arrivals at @p rate requests/s for @p duration_s,
 * each sent at its due time regardless of completions. Latency runs
 * from the due time, so a stall also charges the requests it delays.
 */
Phase
openLoop(Stack &st, const std::vector<Tensor> &inputs, double rate,
         double duration_s, uint64_t seed, double sample_p, Tracer &tracer)
{
    // Exactly rate * duration arrivals with exponential gaps, rescaled
    // to span the phase: the offered load is the same on every seed.
    Rng arr(seed);
    size_t n = static_cast<size_t>(std::max(1.0, std::round(rate * duration_s)));
    std::vector<double> due(n);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - arr.uniform());
        due[i] = t;
    }
    t += -std::log(1.0 - arr.uniform());
    for (double &d : due)
        d *= duration_s / t;
    Rng sample_rng(seed ^ 0x5A5A5A5AULL);
    Phase ph;
    std::deque<Pending> out;
    std::vector<double> depth; // outstanding at each send
    depth.reserve(due.size());
    const double poll_s = 50e-6;
    double t0 = nowS() + 1e-3;
    size_t next = 0;
    double drain_deadline = 0.0;
    while (next < due.size() || !out.empty()) {
        double now = nowS();
        if (next < due.size() && t0 + due[next] <= now) {
            depth.push_back(static_cast<double>(out.size()));
            out.push_back(send(st, inputs, next, t0 + due[next], ph, tracer));
            ++next;
            if (next == due.size())
                drain_deadline = nowS() + std::max(2.0, duration_s);
            continue;
        }
        // Completions arrive in FIFO order for a single tenant.
        bool progressed = false;
        while (!out.empty() &&
               out.front().fut.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            complete(out.front(), nowS(), st, ph, sample_rng, sample_p, 64,
                     tracer);
            out.pop_front();
            progressed = true;
        }
        if (progressed)
            continue;
        if (next == due.size() && now > drain_deadline)
            break;
        double wake = now + poll_s;
        if (next < due.size())
            wake = std::min(wake, t0 + due[next]);
        if (wake - now > 20e-6)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(wake - now - 10e-6));
    }
    ph.wallS = nowS() - t0;
    // Past the drain deadline: wait out the backlog in one flush; those
    // requests are charged the whole wait.
    if (!out.empty()) {
        st.server->flush();
        for (Pending &p : out)
            complete(p, nowS(), st, ph, sample_rng, 0.0, 0, tracer);
    }
    // Backlog growth: queue depth late in the phase well above its
    // level early in the phase.
    if (depth.size() >= 8) {
        size_t q = depth.size() / 4;
        std::vector<double> early(depth.begin() + q, depth.begin() + 2 * q);
        std::vector<double> late(depth.end() - q, depth.end());
        ph.backlogGrew = mean(late) > 2.0 * mean(early) + 4.0;
    }
    return ph;
}

/**
 * Closed loop: one client keeps @p outstanding requests in flight for
 * @p duration_s; latency runs from each send.
 */
Phase
closedLoop(Stack &st, const std::vector<Tensor> &inputs, int outstanding,
           double duration_s, uint64_t seed, double sample_p,
           Tracer &tracer)
{
    Rng sample_rng(seed ^ 0x5A5A5A5AULL);
    Phase ph;
    std::deque<Pending> out;
    double t0 = nowS();
    size_t index = 0;
    for (int i = 0; i < outstanding; ++i, ++index)
        out.push_back(send(st, inputs, index, nowS(), ph, tracer));
    // A refill is due the moment a reply frees its slot; lateness is
    // the generator's reaction time.
    double last_done = t0;
    while (!out.empty()) {
        out.front().fut.wait();
        last_done = nowS();
        Pending p = std::move(out.front());
        out.pop_front();
        p.dueS = p.sentS;
        complete(p, last_done, st, ph, sample_rng, sample_p, 32, tracer);
        if (last_done - t0 < duration_s) {
            out.push_back(send(st, inputs, index, last_done, ph, tracer));
            ++index;
        }
    }
    ph.wallS = last_done - t0;
    return ph;
}

/**
 * p99 latency. With enough samples for several windows of 1000
 * consecutive requests each (10 samples beyond the p99 per window), the
 * median of the windows' p99s, so one host stall in one window does not
 * decide the run; otherwise the p99 of all samples.
 */
double
tailP99(const std::vector<double> &lat)
{
    const size_t window = 1000;
    size_t windows = lat.size() / window;
    if (windows < 3)
        return quantile(lat, 0.99);
    std::vector<double> p99s;
    size_t per = lat.size() / windows;
    for (size_t w = 0; w < windows; ++w)
        p99s.push_back(quantile(
            std::vector<double>(lat.begin() + w * per,
                                lat.begin() + (w + 1) * per),
            0.99));
    return median(p99s);
}

// ---------------------------------------------------------------------
// Per-layer probes (traced run)
// ---------------------------------------------------------------------

/** Engine counters at one instant. */
struct EngineCounters
{
    uint64_t hits = 0, misses = 0, evictions = 0, hydrations = 0,
             rebuilds = 0, packs = 0;
    static EngineCounters
    of(const RpsEngine &e)
    {
        return {e.cacheHits(),      e.cacheMisses(),   e.cacheEvictions(),
                e.cellHydrations(), e.columnRebuilds(), e.packBuilds()};
    }
};

void
reportQuant(Ctx &c, const RpsEngine &e, const EngineCounters &a,
            const EngineCounters &b, double install_us, uint64_t n_install)
{
    Report &r = c.report;
    r.metric("quant.install_us", install_us, "us", n_install);
    uint64_t hits = b.hits - a.hits, misses = b.misses - a.misses;
    r.metric("quant.hit_ratio",
             hits + misses ? static_cast<double>(hits) / (hits + misses)
                           : 1.0,
             "ratio", hits + misses);
    r.metric("quant.evictions", static_cast<double>(b.evictions - a.evictions),
             "count", 1);
    r.metric("quant.hydrations",
             static_cast<double>(b.hydrations - a.hydrations), "count", 1);
    r.metric("quant.column_rebuilds",
             static_cast<double>(b.rebuilds - a.rebuilds), "count", 1);
    r.metric("quant.pack_builds", static_cast<double>(b.packs - a.packs),
             "count", 1);
    r.metric("quant.cache_mb",
             static_cast<double>(e.cacheBytes()) / 1048576.0, "MB", 1);
}

/** What probeExecutor hands back to the other probes. */
struct Probe
{
    double installUs = 0.0; ///< median BatchExecutor::installPrecision
    uint64_t installs = 0;
    std::vector<ConvGeom> geoms; ///< the plan's conv steps, in order
};

/**
 * BatchExecutor probe at the workload's batch geometry: times
 * installPrecision and execute separately over a seeded draw sequence,
 * then profiles the compiled plan's steps at every candidate.
 */
Probe
probeExecutor(Ctx &c, Network &net, RpsEngine &engine,
              const std::vector<int> &image, int rows,
              const serve::ServeConfig &cfg, double budget_s)
{
    Tracer &tr = c.tracer;
    serve::BatchExecutor ex(net, engine, image, cfg);
    std::vector<int> shape = {rows};
    shape.insert(shape.end(), image.begin(), image.end());
    Rng rng(c.opt.seed + 404);
    Tensor x = Tensor::uniform(shape, rng, 0.0f, 1.0f);
    Tensor y({rows, static_cast<int>(ex.outCols())});
    std::vector<const float *> src(static_cast<size_t>(rows));
    std::vector<float *> dst(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
        src[static_cast<size_t>(i)] = x.data() + i * ex.rowElems();
        dst[static_cast<size_t>(i)] = y.data() + i * ex.outCols();
    }
    double t_end = nowS() + budget_s * 0.5;
    int n = 0;
    do {
        int bits = ex.samplePrecision(rng);
        int batch = tr.begin("serve.batch", -1);
        {
            ScopedSpan s(tr, "quant.install", -1, batch);
            ex.installPrecision(bits);
        }
        {
            ScopedSpan s(tr, "serve.execute", -1, batch);
            ex.execute(src.data(), dst.data(), rows);
        }
        tr.end(batch);
        ++n;
    } while (n < 8 || (nowS() < t_end && n < 4000));
    std::vector<double> inst = tr.durationsUs("quant.install");
    std::vector<double> exe = tr.durationsUs("serve.execute");
    c.report.metric("serve.execute_us", median(exe), "us", exe.size());

    // Step profile: mean over every candidate precision.
    auto plan = serve::ExecutionPlan::compile(
        net, engine.set(), serve::PlanMode::Quantized, shape);
    std::map<std::string, double> kind_us;
    double conv_ops = 0.0, conv_us = 0.0;
    const std::vector<int> &cands = engine.set().bits();
    double t_prof = nowS();
    auto once = plan->profileSteps(x, 1);
    double per_run = std::max(1e-6, nowS() - t_prof);
    int reps = std::max(
        2, static_cast<int>(budget_s * 0.4 / cands.size() / per_run));
    std::vector<ConvGeom> geoms = convGeometry(once, image[1], image[2]);
    for (int bits : cands) {
        engine.setPrecision(bits);
        auto prof = plan->profileSteps(x, reps);
        size_t ci = 0;
        for (const auto &s : prof) {
            std::string kind = stepKind(s.first);
            kind_us[kind] += s.second / cands.size();
            if (kind == "conv" && ci < geoms.size()) {
                conv_ops += 2.0 * geoms[ci++].macsPerImage() * rows;
                conv_us += s.second;
            }
        }
    }
    for (const char *k : kStepKinds)
        c.report.metric(std::string("serve.step_us.") + k, kind_us[k], "us",
                        static_cast<uint64_t>(reps) * cands.size());
    c.report.metric("serve.conv_gops",
                    conv_us > 0.0 ? conv_ops / (conv_us * 1e3) : 0.0, "GOPS",
                    static_cast<uint64_t>(reps) * cands.size());
    return {median(inst), inst.size(), geoms};
}

/** Runs @p fn for at least @p budget_s and 3 calls; returns the call
 * count and the seconds they took. */
template <typename Fn>
std::pair<uint64_t, double>
timeLoop(Fn &&fn, double budget_s)
{
    uint64_t calls = 0;
    double t0 = nowS(), t = t0;
    do {
        fn();
        ++calls;
        t = nowS();
    } while (t - t0 < budget_s || calls < 3);
    return {calls, t - t0};
}

/** Random integer codes in [lo, hi]. */
template <typename T>
std::vector<T>
randomCodes(Rng &rng, size_t n, int lo, int hi)
{
    std::vector<T> v(n);
    for (auto &e : v)
        e = static_cast<T>(rng.uniformInt(lo, hi));
    return v;
}

/**
 * Same-shape roofline of rps_bulk's conv GEMMs through the packed
 * integer kernels, plus the accelerator model's cycles for the same
 * layers (the paper's predictor beside the CPU). The shapes are fixed,
 * so every workload's traced run measures them; @p plan_geoms (rps_bulk
 * only) checks that the table still matches the bulk model's plan.
 */
void
probeIgemm(Ctx &c, const std::vector<ConvGeom> *plan_geoms, double budget_s)
{
    if (plan_geoms != nullptr) {
        std::set<std::string> want, have;
        for (const ConvGeom &g : kBulkGeoms)
            want.insert(g.shape());
        for (const ConvGeom &g : *plan_geoms)
            have.insert(g.shape());
        if (want != have)
            c.report.fail("rps_bulk conv GEMM shapes changed; the "
                          "benchmark's per-layer names need updating");
    }
    Accelerator accel(AcceleratorKind::TwoInOne,
                      Accelerator::defaultAreaBudget(),
                      TechModel::defaults());
    double per_case = budget_s / (std::size(kBulkGeoms) * 3.0);
    for (const ConvGeom &g : kBulkGeoms) {
        std::string shape = g.shape();
        int m = g.cout, n = g.oh * g.ow, k = g.cin * g.kernel * g.kernel;
        ConvShape cs;
        cs.name = shape;
        cs.k = m;
        cs.c = g.cin;
        cs.oy = g.oh;
        cs.ox = g.ow;
        cs.r = cs.s = g.kernel;
        cs.stride = g.stride;
        Rng rng(c.opt.seed + static_cast<uint64_t>(m * 131 + k));
        double bytes8 = 0.0, bytes16 = 0.0;
        for (int bits : kRooflineBits) {
            int qmax = (1 << (bits - 1)) - 1;
            auto w = randomCodes<int32_t>(rng, static_cast<size_t>(m) * k,
                                          -qmax, qmax);
            gemm::PackedIntWeights pw;
            gemm::packWeights(w.data(), m, k, bits, pw);
            std::vector<int64_t> out(static_cast<size_t>(m) * n);
            int amax = (1 << bits) - 1;
            bool narrow = bits <= 8;
            auto a8 = randomCodes<uint8_t>(
                rng, narrow ? static_cast<size_t>(n) * k : 0, 0, amax);
            auto a16 = randomCodes<uint16_t>(
                rng, narrow ? 0 : static_cast<size_t>(n) * k, 0, amax);
            auto call = [&] {
                if (narrow)
                    gemm::igemmPackedTransB(pw, n, a8.data(), k, out.data(),
                                            n, bits);
                else
                    gemm::igemmPackedTransB(pw, n, a16.data(), k, out.data(),
                                            n, bits);
            };
            call(); // warm
            std::pair<uint64_t, double> timed;
            {
                ScopedSpan span(c.tracer, "tensor.igemm");
                timed = timeLoop(call, per_case);
            }
            // Computed bytes moved per call: the packed operand the
            // kernel reads, activation codes, int64 accumulators.
            double rest = static_cast<double>(pw.rowSum.size()) * 8 +
                          8.0 * m * n;
            if (bits == 8)
                bytes8 = pw.p8.size() + static_cast<double>(n) * k + rest;
            if (bits == 16)
                bytes16 = pw.p16.size() * 2.0 +
                          2.0 * static_cast<double>(n) * k + rest;
            double cycles = accel.predictor()
                                .predictLayerWithFallback(
                                    cs, bits, bits,
                                    accel.defaultLayerDataflow(cs))
                                .totalCycles;
            std::string tag = shape + ".b" + std::to_string(bits);
            c.report.metric("tensor.igemm_gops." + tag,
                            2.0 * m * n * k * timed.first /
                                (timed.second * 1e9),
                            "GOPS", timed.first);
            c.report.metric("accel.pred_cycles." + tag, cycles, "cycles", 1);
        }
        c.report.metric("tensor.igemm_bytes." + shape + ".u8", bytes8, "B", 1);
        c.report.metric("tensor.igemm_bytes." + shape + ".u16", bytes16, "B",
                        1);
    }
}

/** Float GEMM throughput on rps_adv's conv shapes (fixed shapes,
 * measured on every workload's traced run). */
void
probeSgemm(Ctx &c, double budget_s)
{
    for (const char *shape : kAdvShapes) {
        int m = 0, n = 0, k = 0;
        std::sscanf(shape, "m%dn%dk%d", &m, &n, &k);
        Rng rng(c.opt.seed + static_cast<uint64_t>(m + n + k));
        Tensor a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
        Tensor b = Tensor::uniform({n, k}, rng, -1.0f, 1.0f);
        Tensor out({m, n});
        ScopedSpan span(c.tracer, "tensor.sgemm");
        auto [calls, secs] = timeLoop(
            [&] {
                gemm::sgemm(false, true, m, n, k, a.data(), k, b.data(), k,
                            out.data(), n);
            },
            budget_s / std::size(kAdvShapes));
        double gflops = 2.0 * m * n * k * calls / (secs * 1e9);
        c.report.metric(std::string("tensor.sgemm_gflops.") + shape, gflops,
                        "GFLOPS", calls);
    }
}

/** Float training-path probes: forward, backward, SGD step and one PGD
 * step on @p b at drawn precisions, @p reps times. They move @p net's
 * weights, so they run last, on a network nothing else uses. */
void
probeTraining(Ctx &c, Network *net, const Dataset &b, int reps)
{
    const char *names[] = {"nn.forward_ms", "nn.backward_ms",
                           "nn.sgd_step_ms", "adversarial.pgd_step_ms"};
    Tracer &tr = c.tracer;
    Rng rng(c.opt.seed + 909);
    const std::vector<int> &labels = b.labels;
    Sgd sgd(0.01f);
    AttackConfig acfg;
    acfg.steps = 1;
    acfg.trainMode = true;
    PgdAttack pgd(acfg);
    for (int r = 0; r < reps; ++r) {
        net->setPrecision(net->precisionSet().sample(rng));
        net->zeroGrad();
        Tensor logits;
        {
            ScopedSpan s(tr, "nn.forward");
            logits = net->forward(b.images, true);
        }
        {
            ScopedSpan s(tr, "nn.backward");
            SoftmaxCrossEntropy ce;
            ce.forward(logits, labels);
            net->backward(ce.backward());
        }
        {
            ScopedSpan s(tr, "nn.sgd_step");
            sgd.step(net->parameters());
        }
        {
            ScopedSpan s(tr, "adversarial.pgd_step");
            pgd.perturb(*net, b.images, labels, rng);
        }
    }
    const char *spans[] = {"nn.forward", "nn.backward", "nn.sgd_step",
                           "adversarial.pgd_step"};
    for (int i = 0; i < 4; ++i) {
        std::vector<double> d = tr.durationsUs(spans[i]);
        c.report.metric(names[i], median(d) / 1e3, "ms", d.size());
    }
}

void
reportIo(Ctx &c, const std::vector<double> &load_ms,
         const std::vector<double> &read_mb, double artifact_bytes)
{
    c.report.metric("io.load_ms", median(load_ms), "ms", load_ms.size());
    c.report.metric("io.bytes_read_mb", median(read_mb), "MB",
                    read_mb.size());
    c.report.metric("io.read_ratio",
                    median(read_mb) * 1048576.0 / artifact_bytes, "ratio",
                    read_mb.size());
}

/** Front-end metrics of one traced traffic phase (@p s0 / @p s1: server
 * stats around it). */
void
reportServePhase(Ctx &c, const Phase &ph, const serve::ServeStats &s0,
                 const serve::ServeStats &s1)
{
    Report &r = c.report;
    r.metric("serve.submit_us", median(ph.submitUs), "us",
             ph.submitUs.size());
    r.metric("serve.reply_latency_us", median(ph.replyUs), "us",
             ph.replyUs.size());
    uint64_t batches = s1.batches - s0.batches;
    r.metric("serve.batch_rows",
             batches ? static_cast<double>(s1.rows - s0.rows) / batches : 0.0,
             "rows", batches);
    r.metric("serve.gen_late_ms", quantile(ph.lateMs, 0.99), "ms",
             ph.lateMs.size());
}

/** io probe for workloads that never load a checkpoint: save this
 * workload's model with its engine cache and packs, then time three
 * streamed Session::fromCheckpoint loads of it. */
void
probeIo(Ctx &c, Network &net, RpsEngine &engine, const std::vector<int> &image)
{
    std::string path = c.opt.workDir + "/io_probe_seed" +
                       std::to_string(c.opt.seed) + ".ckpt";
    checkpoint::SaveOptions so;
    so.includeEngineCache = true;
    so.includeEnginePacks = true;
    checkpoint::save(path, net, &engine, so);
    double bytes = static_cast<double>(std::filesystem::file_size(path));
    std::vector<double> load_ms, read_mb;
    for (int r = 0; r < 3; ++r) {
        SessionConfig sc;
        sc.inputShape = image;
        sc.streamArtifact = true;
        uint64_t rchar0 = procReadBytes();
        double t0 = nowS();
        int span = c.tracer.begin("io.load");
        Session loaded = Session::fromCheckpoint(path, sc);
        c.tracer.end(span);
        load_ms.push_back((nowS() - t0) * 1e3);
        read_mb.push_back(static_cast<double>(procReadBytes() - rchar0) /
                          1048576.0);
    }
    std::filesystem::remove(path);
    reportIo(c, load_ms, read_mb, bytes);
}

/** A labelled batch of the first @p rows images of @p inputs (labels
 * cycle through @p classes) for the training-path probes. */
Dataset
probeBatch(const std::vector<Tensor> &inputs, int rows, int classes)
{
    Dataset d;
    d.numClasses = classes;
    const Tensor &x0 = inputs[0];
    d.images = Tensor({rows, x0.dim(1), x0.dim(2), x0.dim(3)});
    int per = x0.dim(0);
    for (int i = 0; i < rows; ++i) {
        d.images.setSlice0(
            i, inputs[static_cast<size_t>(i / per)].slice0(i % per, 1));
        d.labels.push_back(i % classes);
    }
    return d;
}

// ---------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------

Network
interactiveModel(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig mcfg;
    mcfg.baseWidth = 16;
    return preActResNetMini(mcfg, rng);
}

Network
bulkModel(uint64_t seed)
{
    Rng rng(seed);
    return workloads::servableResNet18(rng, 16, 100);
}

Network
streamModel(uint64_t seed)
{
    Rng rng(seed);
    return workloads::servableResNet50(rng, 16, 100);
}

/** Static description of one serving workload. */
struct ServingSpec
{
    Network (*model)(uint64_t seed) = nullptr;
    std::vector<int> image;   ///< [C, H, W]
    int requestRows = 1;      ///< images per request
    int probeRows = 1;        ///< executor probe batch rows
    int trainProbeRows = 8;   ///< training-path probe batch rows
    int trainProbeReps = 3;
    int setups = 3;           ///< set-up repetitions (median reported)
    double maxDelayUs = 200.0;
    serve::ServeConfig serving;
    /** Open loop: nominal rate and ladder (requests/s); empty ladder
     * and rate 0 = closed loop with @p clients outstanding. */
    double nominalRate = 0.0;
    std::vector<double> ladder;
    double p99LimitMs = 0.0;
    int clients = 0;
    double sampleP = 0.05;
};

void
startServer(Stack &st, const ServingSpec &spec)
{
    serve::ServerConfig scfg;
    scfg.maxBatchDelayUs = spec.maxDelayUs;
    scfg.queueCapacity = 1 << 16;
    st.server = std::make_unique<serve::Server>(scfg);
    st.tenant = st.server->addTenant(*st.session, st.imageShape);
}

/** In-process model build (rps_interactive, rps_bulk). */
Stack
buildInProcess(Ctx &c, const ServingSpec &spec)
{
    Stack st;
    st.imageShape = spec.image;
    st.net = std::make_unique<Network>(spec.model(c.opt.seed));
    std::vector<int> cal = {16};
    cal.insert(cal.end(), spec.image.begin(), spec.image.end());
    calibrate(*st.net, c.opt.seed, cal);
    st.engine = std::make_unique<RpsEngine>(*st.net);
    SessionConfig sc;
    sc.serving = spec.serving;
    sc.serving.seed = c.opt.seed;
    sc.inputShape = spec.image;
    st.session = std::make_unique<Session>(
        Session::attach(*st.net, *st.engine, sc));
    startServer(st, spec);
    return st;
}

std::string
artifactPath(const Options &o)
{
    return o.workDir + "/stream_seed" + std::to_string(o.seed) + ".ckpt";
}

/** Child process body: build, calibrate, fill and save the servable
 * ResNet-50 stand-in with its full engine cache and packs. */
int
writeArtifact(const Options &o)
{
    Network net = streamModel(o.seed);
    calibrate(net, o.seed, {16, 3, 32, 32});
    RpsEngine engine(net);
    for (int bits : net.precisionSet().bits())
        engine.setPrecision(bits);
    checkpoint::SaveOptions so;
    so.includeEngineCache = true;
    so.includeEnginePacks = true;
    checkpoint::save(o.writeArtifact, net, &engine, so);
    std::ofstream side(o.writeArtifact + ".cache_bytes");
    side << engine.cacheBytes() << "\n";
    return side ? 0 : 1;
}

/** Run this binary as a child writing the artifact; waits for it. */
bool
spawnArtifactWriter(const Options &o, const std::string &path)
{
    std::string seed = std::to_string(o.seed);
    std::vector<std::string> args = {"rps_bench", "--write-artifact", path,
                                     "--seed", seed};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0)
        return false;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return false;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct StreamFiles
{
    std::string path;
    size_t cacheBytes = 0;
    size_t artifactBytes = 0;
    size_t budget = 0;
};

Stack
buildFromCheckpoint(Ctx &c, const ServingSpec &spec, const StreamFiles &f,
                    double *load_ms)
{
    Stack st;
    st.imageShape = spec.image;
    SessionConfig sc;
    sc.serving = spec.serving;
    sc.serving.seed = c.opt.seed;
    sc.inputShape = spec.image;
    sc.streamArtifact = true;
    sc.cacheBudgetBytes = f.budget;
    double t0 = nowS();
    {
        ScopedSpan s(c.tracer, "io.load");
        st.session = std::make_unique<Session>(
            Session::fromCheckpoint(f.path, sc));
    }
    *load_ms = (nowS() - t0) * 1e3;
    startServer(st, spec);
    return st;
}

/** Shared measured part of every serving workload. */
void
runServing(Ctx &c, const ServingSpec &spec,
           const std::function<Stack(double *load_ms)> &build,
           const StreamFiles *files)
{
    Report &rep = c.report;
    std::vector<int> req_shape = {spec.requestRows};
    req_shape.insert(req_shape.end(), spec.image.begin(), spec.image.end());
    std::vector<Tensor> inputs = makeRequests(c.opt.seed, 64, req_shape);

    // --- Set-up, repeated: median of whole cold starts. -------------
    std::vector<double> setup_s, load_ms, read_mb;
    Stack st;
    int setups = c.opt.trace ? 1 : spec.setups;
    for (int r = 0; r < setups; ++r) {
        st.reset();
        uint64_t rchar0 = procReadBytes();
        double t0 = nowS();
        double lm = 0.0;
        int span = c.tracer.begin("setup");
        st = build(&lm);
        if (!firstVerifiedReply(st, inputs[0]))
            rep.fail("first reply after set-up did not verify");
        c.tracer.end(span);
        setup_s.push_back(nowS() - t0);
        load_ms.push_back(lm);
        read_mb.push_back(
            static_cast<double>(procReadBytes() - rchar0) / 1048576.0);
    }

    // --- Measured traffic. ------------------------------------------
    const bool open = spec.nominalRate > 0.0;
    double S = c.opt.seconds;
    auto measure = [&](double secs, uint64_t salt, Tracer &tr) {
        return open ? openLoop(st, inputs, spec.nominalRate, secs,
                               c.opt.seed * 31 + salt, spec.sampleP, tr)
                    : closedLoop(st, inputs, spec.clients, secs,
                                 c.opt.seed * 31 + salt, spec.sampleP, tr);
    };
    Tracer off(false);
    std::vector<Sample> samples;
    uint64_t attempted = 0, failed = 0;
    // Untimed warm-up: lets first-use work at each candidate precision
    // (packs, arena growth, hydration) finish before timing.
    {
        std::set<int> seen;
        for (uint64_t salt = 7; salt < 27; ++salt) {
            Phase warm = measure(0.3, salt, off);
            attempted += warm.sent;
            failed += warm.shed + warm.wrong;
            seen.insert(warm.precisions.begin(), warm.precisions.end());
            if (seen.size() >= st.session->candidates().size())
                break;
        }
    }
    auto account = [&](const Phase &ph) {
        attempted += ph.sent;
        failed += ph.shed + ph.wrong;
        samples.insert(samples.end(), ph.samples.begin(), ph.samples.end());
    };

    if (!c.opt.trace) {
        double main_s = spec.ladder.empty() ? S : S * 0.6;
        Phase ph = measure(main_s, 1, off);
        account(ph);
        rep.metric("setup_s", median(setup_s), "s", setup_s.size());
        rep.metric("p50_ms", median(ph.latMs), "ms", ph.latMs.size());
        rep.metric("p99_ms", tailP99(ph.latMs), "ms", ph.latMs.size());
        rep.metric("rows_per_s", ph.rows / ph.wallS, "1/s", ph.ok);
        // Read before the ladder: an overloaded rung's backlog is not
        // the workload's footprint.
        rep.metric("peak_rss_mb", peakRssMb(), "MB", 1);
        if (open) {
            rep.info("offered_rps", spec.nominalRate, "1/s", ph.sent);
            rep.info("gen_late_p99_ms", quantile(ph.lateMs, 0.99), "ms",
                     ph.lateMs.size());
            if (median(ph.lateMs) > 1.0 || quantile(ph.lateMs, 0.99) > 10.0)
                rep.fail("load generator fell behind its schedule; the "
                         "run is invalid, not slow");
        }
        // Ladder (open loop only): fixed absolute rates, short phases.
        double max_rate = 0.0;
        for (size_t i = 0; i < spec.ladder.size(); ++i) {
            double rate = spec.ladder[i];
            Phase lp = openLoop(st, inputs, rate, S * 0.4 / spec.ladder.size(),
                                c.opt.seed * 97 + i, spec.sampleP, off);
            account(lp);
            double p99 = tailP99(lp.latMs);
            bool meets = lp.shed + lp.wrong == 0 && !lp.backlogGrew &&
                         p99 <= spec.p99LimitMs;
            std::printf("ladder rate=%.0f/s sent=%llu p50=%.3fms p99=%.3fms "
                        "backlog=%s %s\n",
                        rate, static_cast<unsigned long long>(lp.sent),
                        median(lp.latMs), p99,
                        lp.backlogGrew ? "grew" : "flat",
                        meets ? "meets" : "misses");
            if (meets)
                max_rate = std::max(max_rate, rate);
        }
        if (!spec.ladder.empty())
            rep.info("max_rate_rps", max_rate, "1/s", spec.ladder.size());
    } else {
        // Untraced and traced halves of the same phase: their p50
        // difference is the tracing overhead.
        EngineCounters before = EngineCounters::of(
            st.session->engine());
        serve::ServeStats s0 = st.server->stats();
        Phase plain = measure(S * 0.3, 1, off);
        Phase traced = measure(S * 0.3, 2, c.tracer);
        account(plain);
        account(traced);
        serve::ServeStats s1 = st.server->stats();
        st.server->flush();
        EngineCounters after = EngineCounters::of(st.session->engine());
        double p_off = median(plain.latMs), p_on = median(traced.latMs);
        rep.metric("trace.overhead_pct",
                   p_off > 0.0 ? (p_on - p_off) / p_off * 100.0 : 0.0, "%",
                   traced.latMs.size());
        reportServePhase(c, traced, s0, s1);
        // Stop serving before probing the model directly.
        Session &sess = *st.session;
        st.server.reset();
        RpsEngine &eng = sess.engine();
        Probe inst = probeExecutor(c, sess.network(), eng, spec.image,
                                   spec.probeRows, spec.serving, S * 0.25);
        reportQuant(c, eng, before, after, inst.installUs, inst.installs);
        if (files != nullptr)
            reportIo(c, load_ms, read_mb, files->artifactBytes);
        else
            probeIo(c, sess.network(), eng, spec.image);
        probeIgemm(c, spec.clients > 0 ? &inst.geoms : nullptr, S * 0.1);
        probeSgemm(c, S * 0.02);
    }

    // --- Correctness: bit-compare sampled replies. -------------------
    if (st.server) {
        st.server->flush();
        st.server.reset();
    }
    // Budget invariant on the streamed workload (quiesced read).
    if (files != nullptr && st.session->engine().cacheBytes() > files->budget)
        rep.fail("engine cache above its byte budget");
    uint64_t wrong = verifySamples(st, inputs, samples, rep);
    if (wrong > 0)
        rep.fail(std::to_string(wrong) + " of " +
                 std::to_string(samples.size()) +
                 " sampled replies differ from the reference forward");
    failed += wrong;
    rep.info("verified_replies", static_cast<double>(samples.size()),
             "count", samples.size());
    rep.info("failed_frac",
             attempted ? static_cast<double>(failed) / attempted : 0.0,
             "ratio", attempted);
    rep.attempted = attempted;
    rep.failed = failed;
    if (c.opt.trace) {
        // Serving bypasses the float training path: probe it on a fresh
        // copy of the workload's model.
        Network fresh = spec.model(c.opt.seed);
        probeTraining(c, &fresh,
                      probeBatch(inputs, spec.trainProbeRows, 10),
                      spec.trainProbeReps);
    }
}

ServingSpec
interactiveSpec()
{
    ServingSpec s;
    s.model = interactiveModel;
    s.serving = SessionConfig::defaultServing();
    s.image = {3, 8, 8};
    s.trainProbeRows = 16;
    s.trainProbeReps = 10;
    s.requestRows = 1;
    s.probeRows = 1;
    s.setups = 9;
    s.maxDelayUs = 200.0;
    s.serving.lazyPlanWarmup = false;
    s.serving.maxBatch = 8;
    s.serving.microBatch = 4;
    s.nominalRate = 2000.0;
    s.ladder = {4000.0, 8000.0, 16000.0};
    s.p99LimitMs = 5.0;
    s.sampleP = 0.02;
    return s;
}

ServingSpec
bulkSpec()
{
    ServingSpec s;
    s.model = bulkModel;
    s.serving = SessionConfig::defaultServing();
    s.image = {3, 32, 32};
    s.requestRows = 16;
    s.probeRows = 32;
    s.setups = 3;
    s.maxDelayUs = 2000.0;
    s.serving.lazyPlanWarmup = false;
    s.serving.maxBatch = 32;
    // One shard per pool thread: 4 shards of 8 on 3 threads would run
    // the last shard alone.
    int threads = ThreadPool::global().threads();
    s.serving.microBatch = (32 + threads - 1) / threads;
    s.clients = 4;
    s.sampleP = 0.05;
    return s;
}

ServingSpec
streamSpec()
{
    ServingSpec s;
    s.model = streamModel;
    s.serving = SessionConfig::defaultServing();
    s.image = {3, 32, 32};
    s.requestRows = 1;
    s.trainProbeRows = 4;
    s.probeRows = 1;
    s.setups = 3;
    s.maxDelayUs = 1000.0;
    s.serving.maxBatch = 4;
    s.serving.microBatch = 4;
    s.nominalRate = 25.0;
    s.sampleP = 0.05;
    return s;
}

void
runInteractive(Ctx &c)
{
    ServingSpec spec = interactiveSpec();
    runServing(
        c, spec,
        [&](double *) { return buildInProcess(c, spec); },
        nullptr);
}

void
runBulk(Ctx &c)
{
    ServingSpec spec = bulkSpec();
    runServing(
        c, spec, [&](double *) { return buildInProcess(c, spec); },
        nullptr);
}

void
runStream(Ctx &c)
{
    ServingSpec spec = streamSpec();
    StreamFiles f;
    f.path = artifactPath(c.opt);
    // The artifact is written by a child process before timing, so the
    // full-cache build never shows in this process's peak RSS.
    if (!spawnArtifactWriter(c.opt, f.path)) {
        std::fprintf(stderr, "artifact writer failed\n");
        std::exit(1);
    }
    {
        std::ifstream side(f.path + ".cache_bytes");
        side >> f.cacheBytes;
        std::ifstream art(f.path, std::ios::binary | std::ios::ate);
        f.artifactBytes = static_cast<size_t>(art.tellg());
    }
    f.budget = static_cast<size_t>(static_cast<double>(f.cacheBytes) * 0.4);
    c.report.info("artifact_mb", f.artifactBytes / 1048576.0, "MB", 1);
    c.report.info("cache_budget_mb", f.budget / 1048576.0, "MB", 1);
    runServing(
        c, spec,
        [&](double *load_ms) {
            return buildFromCheckpoint(c, spec, f, load_ms);
        },
        &f);
    std::remove(f.path.c_str());
    std::remove((f.path + ".cache_bytes").c_str());
}

// ---------------------------------------------------------------------
// rps_adv
// ---------------------------------------------------------------------

TrainConfig
advTrainConfig(uint64_t seed)
{
    TrainConfig cfg;
    cfg.method = TrainMethod::Pgd7;
    cfg.rps = true;
    cfg.cachedEngine = true;
    cfg.epochs = 1;
    cfg.batchSize = 64;
    cfg.lr = 0.08f;
    cfg.seed = seed;
    return cfg;
}

/** One optimizer step: a one-batch fit() (one RPS precision draw, the
 * PGD-7 inner maximization, one SGD update). */
double
trainStep(Trainer &t, const Dataset &train, const std::vector<int> &order,
          size_t step, int bs, Tracer &tr)
{
    size_t per_epoch = order.size() / static_cast<size_t>(bs);
    size_t start = (step % per_epoch) * static_cast<size_t>(bs);
    Dataset b;
    b.numClasses = train.numClasses;
    b.name = train.name;
    b.images = Tensor({bs, train.images.dim(1), train.images.dim(2),
                       train.images.dim(3)});
    for (int i = 0; i < bs; ++i) {
        int src = order[start + static_cast<size_t>(i)];
        b.images.setSlice0(i, train.images.slice0(src, 1));
        b.labels.push_back(train.labels[static_cast<size_t>(src)]);
    }
    ScopedSpan s(tr, "adversarial.train_step", static_cast<int64_t>(step));
    double t0 = nowS();
    t.fit(b);
    return nowS() - t0;
}

void
runAdv(Ctx &c)
{
    Report &rep = c.report;
    const int bs = 64;
    const int eval_n = 128;
    double S = c.opt.seconds;
    int steps = std::max(6, static_cast<int>(std::lround(S * 3.5)));

    struct AdvState
    {
        DatasetPair data;
        std::unique_ptr<Network> net;
        std::unique_ptr<Trainer> trainer;
        std::vector<int> order;
    };
    std::vector<double> setup_s;
    AdvState a;
    int setups = c.opt.trace ? 1 : 3;
    for (int r = 0; r < setups; ++r) {
        a.trainer.reset(); // before the network it trains
        a = AdvState();
        double t0 = nowS();
        int span = c.tracer.begin("setup");
        a.data = makeCifar10Like(1.0, c.opt.seed);
        Rng rng(c.opt.seed);
        ModelConfig mcfg;
        mcfg.baseWidth = 8;
        a.net = std::make_unique<Network>(preActResNetMini(mcfg, rng));
        a.trainer = std::make_unique<Trainer>(*a.net,
                                              advTrainConfig(c.opt.seed));
        a.order.resize(static_cast<size_t>(a.data.train.size()));
        std::iota(a.order.begin(), a.order.end(), 0);
        Rng shuffle(c.opt.seed + 5);
        shuffle.shuffle(a.order);
        trainStep(*a.trainer, a.data.train, a.order, 0, bs, c.tracer);
        c.tracer.end(span);
        setup_s.push_back(nowS() - t0);
    }

    auto train = [&](int first, int count, Tracer &tr) {
        std::vector<double> ms;
        for (int i = first; i < first + count; ++i)
            ms.push_back(
                trainStep(*a.trainer, a.data.train, a.order,
                          static_cast<size_t>(i), bs, tr) *
                1e3);
        return ms;
    };
    Tracer off(false);
    std::vector<double> step_ms;
    if (!c.opt.trace) {
        step_ms = train(1, steps, off);
    } else {
        std::vector<double> plain = train(1, steps / 3, off);
        std::vector<double> traced = train(1 + steps / 3, steps / 3,
                                           c.tracer);
        double p_off = median(plain), p_on = median(traced);
        rep.metric("trace.overhead_pct", (p_on - p_off) / p_off * 100.0,
                   "%", traced.size());
        step_ms = plain;
    }
    double train_s = std::accumulate(step_ms.begin(), step_ms.end(), 0.0) /
                     1e3;

    // RPS PGD-20 evaluation on the test split, plus a repeat of its
    // first batches with the same attack seed: robust accuracy must be
    // a pure function of (model, seed).
    a.net->setPrecision(0);
    Dataset test = a.data.test.batch(0, eval_n);
    double robust = 0.0, eval_s = 0.0;
    {
        // The session wraps the trained network (owned by `a`).
        Stack ev;
        ev.imageShape = {3, 8, 8};
        ev.session = std::make_unique<Session>(Session::attach(*a.net));
        Session &sess = *ev.session;
        PgdAttack pgd20(AttackConfig{});
        EngineCounters e0 = EngineCounters::of(sess.engine());
        double t0 = nowS();
        {
            ScopedSpan s(c.tracer, "adversarial.rps_robust_eval");
            Rng arng(c.opt.seed + 20);
            robust = rpsRobustAccuracy(sess, pgd20, test, arng, 16);
        }
        eval_s = nowS() - t0;
        EngineCounters e1 = EngineCounters::of(sess.engine());
        Dataset head = test.batch(0, 32);
        Rng r1(c.opt.seed + 21), r2(c.opt.seed + 21);
        double again_a = rpsRobustAccuracy(sess, pgd20, head, r1, 16);
        double again_b = rpsRobustAccuracy(sess, pgd20, head, r2, 16);
        if (again_a != again_b)
            rep.fail("robust accuracy differs between identical "
                     "evaluations");
        if (c.opt.trace) {
            // rps_adv never serves: probe the front end with the
            // trained model behind a Server, closed loop.
            ServingSpec probe;
            probe.maxDelayUs = 1000.0;
            startServer(ev, probe);
            std::vector<Tensor> reqs = makeRequests(c.opt.seed, 8,
                                                    {16, 3, 8, 8});
            serve::ServeStats s0 = ev.server->stats();
            Phase ph = closedLoop(ev, reqs, 2, S * 0.05, c.opt.seed, 0.0,
                                  c.tracer);
            serve::ServeStats s1 = ev.server->stats();
            ev.server.reset();
            if (ph.shed + ph.wrong > 0)
                rep.fail("server probe on the trained model failed requests");
            reportServePhase(c, ph, s0, s1);
            Probe p = probeExecutor(c, *a.net, sess.engine(), {3, 8, 8}, 16,
                                    sess.config().serving, S * 0.15);
            reportQuant(c, sess.engine(), e0, e1, p.installUs, p.installs);
            probeIo(c, *a.net, sess.engine(), {3, 8, 8});
            probeIgemm(c, nullptr, S * 0.1);
            probeSgemm(c, S * 0.02);
        }
    }
    if (!std::isfinite(robust) || robust < 0.0 || robust > 100.0)
        rep.fail("robust accuracy out of range");

    if (!c.opt.trace) {
        rep.metric("setup_s", median(setup_s), "s", setup_s.size());
        rep.metric("p50_ms", median(step_ms), "ms", step_ms.size());
        rep.metric("p99_ms", quantile(step_ms, 0.99), "ms", step_ms.size());
        rep.metric("rows_per_s", step_ms.size() * bs / train_s, "1/s",
                   step_ms.size());
        rep.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    } else {
        // Float training-path probes run last: they move the weights.
        probeTraining(c, a.net.get(), a.data.train.batch(0, bs), 10);
    }
    rep.info("train_examples_s", step_ms.size() * bs / train_s, "1/s",
             step_ms.size());
    rep.info("attack_examples_s", eval_n / eval_s, "1/s", eval_n);
    rep.info("robust_acc", robust / 100.0, "ratio", eval_n);
    rep.attempted = step_ms.size() + 1 + static_cast<uint64_t>(eval_n);
    rep.failed = 0;
}

// ---------------------------------------------------------------------

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = val();
        else if (a == "--seed")
            o.seed = std::stoull(val());
        else if (a == "--seconds")
            o.seconds = std::stod(val());
        else if (a == "--trace")
            o.trace = std::stoi(val()) != 0;
        else if (a == "--trace-dir")
            o.traceDir = val();
        else if (a == "--work-dir")
            o.workDir = val();
        else if (a == "--write-artifact")
            o.writeArtifact = val();
        else
            throw std::runtime_error("unknown argument " + a);
    }
    return o.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt))
            throw std::runtime_error("--seconds must be positive");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rps_bench: %s\n", e.what());
        return 2;
    }
    if (!opt.writeArtifact.empty())
        return writeArtifact(opt);

    const std::set<std::string> known = {"rps_interactive", "rps_bulk",
                                         "rps_stream_budget", "rps_adv"};
    if (!known.count(opt.workload)) {
        std::fprintf(stderr, "rps_bench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    Ctx c(opt);
    c.nproc = availableCpus();
    // The pool reads TWOINONE_THREADS once, on first use: fix it before
    // any library call. The last CPU is left to the load generator.
    c.threads = std::max(1, c.nproc - 1);
    setenv("TWOINONE_THREADS", std::to_string(c.threads).c_str(), 1);
    std::printf("meta workload=%s seed=%llu seconds=%g trace=%d threads=%d "
                "pool_threads=%d nproc=%d isa=%s backend=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, c.threads, ThreadPool::global().threads(),
                c.nproc, gemm::isaTierName(gemm::activeIsaTier()),
                gemm::backendName(gemm::activeBackend()));

    std::error_code ec;
    std::filesystem::create_directories(opt.workDir, ec);
    if (!ec)
        std::filesystem::create_directories(opt.traceDir, ec);
    if (ec) {
        std::fprintf(stderr, "rps_bench: %s\n", ec.message().c_str());
        return 1;
    }
    try {
        if (opt.workload == "rps_interactive")
            runInteractive(c);
        else if (opt.workload == "rps_bulk")
            runBulk(c);
        else if (opt.workload == "rps_stream_budget")
            runStream(c);
        else
            runAdv(c);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rps_bench: %s\n", e.what());
        return 1;
    }
    if (opt.trace) {
        std::string path = opt.traceDir + "/" + opt.workload + "_seed" +
                           std::to_string(opt.seed) + ".jsonl";
        if (!c.tracer.write(path))
            std::fprintf(stderr, "rps_bench: could not write %s\n",
                         path.c_str());
        else
            std::printf("trace %zu spans -> %s\n", c.tracer.size(),
                        path.c_str());
    }
    c.report.finish();
    // A wrong reply fails the command after the result is printed.
    return c.report.correct() ? 0 : 3;
}
