#include "spans.hh"

#include <algorithm>
#include <fstream>

namespace spbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now())
{
}

int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanRecorder::open(const std::string &name, const std::string &layer)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    spans_[id].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
SpanRecorder::derived(int parent, const std::string &name,
                      const std::string &layer, double seconds)
{
    if (parent < 0)
        return;
    const Span &p = spans_[parent];
    int64_t covered = 0;
    for (const Span &s : spans_)
        if (s.parent == parent)
            covered += s.endNs - s.startNs;
    int64_t want = static_cast<int64_t>(seconds * 1e9);
    int64_t room = (p.endNs - p.startNs) - covered;
    Span d;
    d.name = name;
    d.layer = layer;
    d.parent = parent;
    d.derived = true;
    d.startNs = p.startNs;
    d.endNs = p.startNs + std::clamp<int64_t>(want, 0, std::max<int64_t>(
                                                           room, 0));
    spans_.push_back(std::move(d));
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[s.parent] += s.endNs - s.startNs;
    // Parents precede their children, so one pass marks side subtrees.
    std::vector<bool> side(spans_.size(), false);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        side[i] = s.layer == kSideLayer || (s.parent >= 0 && side[s.parent]);
        int64_t self = s.endNs - s.startNs - childNs[i];
        out[side[i] ? kSideLayer : s.layer] +=
            static_cast<double>(self) * 1e-9;
    }
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string name;
        for (char c : s.name)
            name += (c == '"' || c == '\\') ? '_' : c;
        os << "{\"id\":" << i << ",\"name\":\"" << name
           << "\",\"layer\":\"" << s.layer << "\",\"parent\":" << s.parent
           << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << ",\"derived\":" << (s.derived ? "true" : "false") << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

Scope::Scope(SpanRecorder &rec, const std::string &name,
             const std::string &layer, double *acc)
    : rec_(rec), acc_(acc), id_(rec.open(name, layer)), t0_(Clock::now())
{
}

void
Scope::stop()
{
    if (!open_)
        return;
    open_ = false;
    double seconds = secondsSince(t0_);
    rec_.close(id_);
    if (acc_)
        *acc_ += seconds;
}

} // namespace spbench
