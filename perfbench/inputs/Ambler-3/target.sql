CREATE TABLE Customer (
    cid INTEGER,
    name VARCHAR(255)
);
CREATE TABLE Account (
    aid INTEGER,
    cid INTEGER,
    prefs VARCHAR(255)
);
