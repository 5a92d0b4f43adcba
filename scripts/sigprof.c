/* A sampling profiler small enough to read: preloaded into a process
 * (LD_PRELOAD), it samples the interrupted instruction pointer and the
 * word at the top of the stack 1 000 times a second of process CPU
 * time (ITIMER_PROF, so page faults and system time are sampled too),
 * and at exit writes /proc/self/maps and the samples, one "rip word"
 * pair of hex numbers a line, to $SIGPROF_OUT. For a leaf function
 * without a frame, such as libc's memcpy, the word is its return
 * address: scripts/profile.sh charges those samples to the caller.
 * Build: cc -O2 -shared -fPIC -o sigprof.so sigprof.c */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 18)
static unsigned long samples[MAX_SAMPLES][2];
static long taken;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    const greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) {
        samples[i][0] = (unsigned long)regs[REG_RIP];
        samples[i][1] = *(const unsigned long *)regs[REG_RSP];
    }
}

__attribute__((constructor)) static void start(void) {
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_prof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++)
        fprintf(out, "%lx %lx\n", samples[i][0], samples[i][1]);
    fclose(maps);
    fclose(out);
}
