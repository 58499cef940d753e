#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double, std::milli>(clock::now() - origin)
        .count();
}

int
Tracer::begin(const std::string &name, const std::string &layer)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startMs = nowMs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endMs = nowMs();
    auto it = std::find(open_.begin(), open_.end(), id);
    if (it != open_.end())
        open_.erase(it, open_.end());
}

int
Tracer::add(const std::string &name, const std::string &layer,
            double startMs, double endMs, int parent, std::int64_t request)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.startMs = startMs;
    s.endMs = std::max(startMs, endMs);
    s.parent = parent >= 0 ? parent : (open_.empty() ? -1 : open_.back());
    s.request = request;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

double
unionLength(std::vector<std::pair<double, double>> iv, double lo, double hi)
{
    std::sort(iv.begin(), iv.end());
    double total = 0, curS = 0, curE = 0;
    bool open = false;
    for (auto [s, e] : iv) {
        s = std::max(s, lo);
        e = std::min(e, hi);
        if (e <= s)
            continue;
        if (open && s <= curE) {
            curE = std::max(curE, e);
            continue;
        }
        if (open)
            total += curE - curS;
        curS = s;
        curE = e;
        open = true;
    }
    if (open)
        total += curE - curS;
    return total;
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.startMs, s.endMs});
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[s.layer] += (s.endMs - s.startMs) -
                        unionLength(children[i], s.startMs, s.endMs);
    }
    return out;
}

double
Tracer::coveredMs(double fromMs, double toMs) const
{
    std::vector<std::pair<double, double>> iv;
    for (const Span &s : spans_)
        iv.push_back({s.startMs, s.endMs});
    return unionLength(std::move(iv), fromMs, toMs);
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Request spans overlap each other; one lane per request keeps
        // every lane properly nested.
        const long long tid = s.request >= 0 ? 2 + s.request : 1;
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%lld,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,"
                      "\"request\":%lld}}",
                      i ? ",\n" : "", jsonEscape(s.name).c_str(),
                      jsonEscape(s.layer).c_str(), s.startMs * 1e3,
                      (s.endMs - s.startMs) * 1e3, tid, i, s.parent,
                      static_cast<long long>(s.request));
        f << buf;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

} // namespace perfbench
