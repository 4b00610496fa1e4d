/**
 * @file
 * Host-time spans for the benchmark's traced runs.
 *
 * Every call the benchmark makes into a layer of the simulator is timed
 * with std::chrono::steady_clock. With tracing on, each timing is also
 * kept in memory as a span -- name, start, end, parent span and the id
 * of the operation (one sweep point or fault site) it belongs to -- and
 * the spans are written once, at exit, as a "cheri-simt-trace-v1"
 * Chrome/Perfetto document, the shape the simulator's own --trace
 * output uses. Timestamps are host nanoseconds since the recorder was
 * created (the simulator's trace uses modelled cycles in the same
 * integer "ts" field).
 */

#ifndef CHERI_SIMT_PERFBENCH_SPANS_HPP_
#define CHERI_SIMT_PERFBENCH_SPANS_HPP_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline int64_t
nanosBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
        .count();
}

class SpanRecorder
{
  public:
    /** @p recording: keep spans from the start (the set-up). */
    explicit SpanRecorder(bool recording);

    /** Keep (true) or drop (false) the spans added from now on. */
    void setRecording(bool on) { recording_ = on; }

    /** A fresh id for a span or an operation. Allocated before the span
     *  closes, so its children can name it as their parent. */
    uint64_t newId() { return ++lastId_; }

    /**
     * Keep the closed span [t0, t1] (no-op unless recording).
     * @p parent is 0 for a root span; @p kernel names the suite kernel
     * the span worked on, or is empty.
     */
    void add(uint64_t id, const char *name, uint64_t parent, uint64_t op,
             Clock::time_point t0, Clock::time_point t1,
             const std::string &kernel = std::string());

    /** Write every span as a cheri-simt-trace-v1 document. */
    bool write(const std::string &path, const std::string &process,
               uint64_t seed) const;

  private:
    struct Span
    {
        const char *name;
        uint64_t id;
        uint64_t parent;
        uint64_t op;
        int64_t startNs;
        int64_t endNs;
        std::string kernel;
    };

    bool recording_;
    Clock::time_point epoch_;
    uint64_t lastId_ = 0;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // CHERI_SIMT_PERFBENCH_SPANS_HPP_
