// silo-lint test fixture: R4 positives — a negative delay (Tick is
// unsigned and wraps) and a default-capture deferred callback. The
// captured counter lives at file scope so the fixture itself stays
// lifetime-safe (a local would dangle once its frame returns).
struct Queue
{
    template <typename F>
    void schedule(long when, F &&fn);
};

int counter = 0;

void
arm(Queue &q)
{
    q.schedule(-5, [&counter] { ++counter; });
    q.schedule(10, [&] { ++counter; });
}
