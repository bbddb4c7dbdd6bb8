CREATE TABLE Customer (
    cid INTEGER,
    name VARCHAR(255),
    prefs VARCHAR(255)
);
CREATE TABLE Account (
    aid INTEGER,
    cid INTEGER
);
