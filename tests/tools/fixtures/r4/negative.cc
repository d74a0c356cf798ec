// silo-lint test fixture: R4 negative — explicit captures and a
// non-negative delay. The counter lives at file scope so the
// explicit by-ref capture is lifetime-safe.
struct Queue
{
    template <typename F>
    void schedule(long when, F &&fn);
};

int counter = 0;

void
arm(Queue &q)
{
    q.schedule(10, [&counter] { ++counter; });
}
